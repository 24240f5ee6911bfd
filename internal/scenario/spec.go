// Package scenario is the repository's declarative run API. Every workload
// the six CLIs (and the cmd/serve HTTP facade) execute is an instance of one
// shape — a model, an engine/kernel choice, a task, a parameter grid, a
// budget, a seed — so it is described by one serializable Spec and executed
// by one Runner:
//
//   - A Spec is a strict, losslessly JSON-round-trippable description of a
//     run: which model (a Lotka–Volterra chain, a registered protocol, a CRN
//     text network, or a registered experiment ID), which task (estimate,
//     threshold, sweep, simulate, exact, experiment, report), and every
//     knob that affects the result — grid, trials, target, seed, workers,
//     cache policy. Unknown fields are rejected, so a spec can never
//     silently mean less than it says.
//   - A Runner executes any valid Spec on the shared internal/mc worker
//     pool, optionally against a process-wide probe cache (internal/sweep),
//     and returns a typed Result embedding internal/report manifests, so
//     every run — CLI or server — carries full provenance.
//
// The CLIs are thin front-ends over this API: each parses its flags into a
// Spec (printable with -dump-spec, replayable with -spec), so any shell
// invocation is reproducible as data, and the same specs run over HTTP via
// cmd/serve.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/protocols"
)

// SpecVersion is the Spec schema version. Parse rejects specs written by an
// incompatible future schema instead of misreading them.
const SpecVersion = 1

// Task selects what a Spec computes.
type Task string

// The tasks a Runner executes.
const (
	// TaskEstimate estimates the majority-consensus probability ρ(n, Δ)
	// for one population size and gap (Monte Carlo, Wilson interval).
	TaskEstimate Task = "estimate"
	// TaskThreshold searches the empirical threshold Ψ(n) for one
	// population size.
	TaskThreshold Task = "threshold"
	// TaskSweep computes a whole threshold curve Ψ(n) over a population
	// grid on the internal/sweep engine (warm starts, probe cache, lanes).
	TaskSweep Task = "sweep"
	// TaskSimulate runs batch simulations of the model from an explicit
	// initial state and aggregates outcome statistics.
	TaskSimulate Task = "simulate"
	// TaskExact solves the first-step recurrence exactly (no Monte Carlo):
	// ρ(a, b) and optionally expected consensus times.
	TaskExact Task = "exact"
	// TaskExperiment runs one registered experiment from the
	// internal/experiment registry.
	TaskExperiment Task = "experiment"
	// TaskReport generates result documentation or re-renders a saved run
	// manifest (the cmd/report workload).
	TaskReport Task = "report"
)

// Spec is the declarative description of one run. Exactly one task-options
// field — the one matching Task — may be set; Model is required for every
// task except experiment and report.
type Spec struct {
	// Version is the schema version (SpecVersion).
	Version int `json:"version"`
	// Task selects what to compute.
	Task Task `json:"task"`
	// Model describes the stochastic model the task runs on.
	Model *Model `json:"model,omitempty"`
	// Seed is the root seed; every result is bit-reproducible per seed.
	Seed uint64 `json:"seed,omitempty"`
	// Workers is the parallel worker budget (0 = GOMAXPROCS). It affects
	// scheduling only, never results.
	Workers int `json:"workers,omitempty"`
	// Timeout is the wall-clock budget for the run as a Go duration string
	// (e.g. "90s", "5m"); empty means no deadline. A run that exceeds it
	// fails with a timeout error — partial results already settled in a
	// persistent cache are kept, so a rerun with a larger budget resumes
	// rather than restarts. Like Workers it can only abort a run, never
	// change a completed run's results.
	Timeout string `json:"timeout,omitempty"`
	// Cache selects the threshold-probe cache policy (nil = off).
	Cache *CacheSpec `json:"cache,omitempty"`

	Estimate   *EstimateSpec   `json:"estimate,omitempty"`
	Threshold  *ThresholdSpec  `json:"threshold,omitempty"`
	Sweep      *SweepSpec      `json:"sweep,omitempty"`
	Simulate   *SimulateSpec   `json:"simulate,omitempty"`
	Exact      *ExactSpec      `json:"exact,omitempty"`
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	Report     *ReportSpec     `json:"report,omitempty"`
}

// Model describes a stochastic model: exactly one of LV, Protocol, or CRN,
// selected by Kind.
type Model struct {
	// Kind is "lv", "protocol", or "crn".
	Kind string `json:"kind"`
	// LV is the two-species Lotka–Volterra chain of the paper.
	LV *LVModel `json:"lv,omitempty"`
	// Protocol names a registered consensus protocol (see ProtocolNames).
	Protocol *ProtocolModel `json:"protocol,omitempty"`
	// CRN is an arbitrary chemical reaction network in the internal/crn
	// text format.
	CRN *CRNModel `json:"crn,omitempty"`
}

// LVModel carries the Lotka–Volterra rate constants. All rates are explicit
// — a spec never relies on implicit defaults, so it means the same thing in
// every version of the code.
type LVModel struct {
	// Beta and Death are the per-capita birth and death rates.
	Beta  float64 `json:"beta"`
	Death float64 `json:"death"`
	// Alpha0 and Alpha1 are the interspecific competition rates initiated
	// by species 0 and 1.
	Alpha0 float64 `json:"alpha0"`
	Alpha1 float64 `json:"alpha1"`
	// Gamma0 and Gamma1 are the intraspecific competition rates.
	Gamma0 float64 `json:"gamma0,omitempty"`
	Gamma1 float64 `json:"gamma1,omitempty"`
	// Competition is "sd" (self-destructive) or "nsd".
	Competition string `json:"competition"`
	// Ties scores double extinction: "" or "loss" (the paper's strict
	// definition) or "coinflip".
	Ties string `json:"ties,omitempty"`
	// MaxSteps bounds each consensus trial (0 = the lv package default).
	MaxSteps int `json:"max_steps,omitempty"`
	// Engine selects the consensus-trial kernel: "" or "event" (the
	// event kernel), or "skip", which samples the same law by jumping
	// over runs of competitive events and needs gamma0 = gamma1 = 0 and
	// alpha0 = alpha1 > 0. The skip engine reports winners and step
	// counts only, so simulate tasks reject it; exact tasks, which do
	// not sample, take no engine.
	Engine string `json:"engine,omitempty"`
	// Label overrides the generated protocol name in tables and logs.
	Label string `json:"label,omitempty"`
}

// ProtocolModel names a protocol from the registry (ProtocolNames lists the
// valid names) with an optional kernel override.
type ProtocolModel struct {
	// Name is the registry name, e.g. "lv-sd" or "3-state-am".
	Name string `json:"name"`
	// Kernel overrides the trial event loop of population protocols:
	// "" (the protocol's default), "batch", or "per-event".
	Kernel string `json:"kernel,omitempty"`
}

// CRNModel is an inline chemical reaction network. The network text is
// embedded, not referenced by path, so the spec is self-contained and safe
// to execute server-side.
type CRNModel struct {
	// Text is the network description in the internal/crn text format.
	Text string `json:"text"`
	// Engine selects the simulation engine (internal/sim): "" or "direct"
	// (exact Gillespie SSA), "nrm" (Gibson–Bruck next-reaction method), or
	// "leap" (explicit tau-leaping).
	Engine string `json:"engine,omitempty"`
}

// CacheSpec selects the threshold-probe cache policy of a run.
type CacheSpec struct {
	// Policy is "off", "memory" (fresh in-memory cache for this run),
	// "shared" (the Runner's process-wide cache, shared by every run that
	// asks for it), "file" (persisted at Path), or "remote" (exchanged
	// with the HTTP cache server at URL — typically a fabric coordinator's
	// /fabric/v1/cache endpoint — so a fleet warm-starts from one
	// another's probes). The cache never changes results; it only skips
	// already-settled Monte-Carlo work.
	Policy string `json:"policy"`
	// Path is the cache file for the "file" policy.
	Path string `json:"path,omitempty"`
	// URL is the cache server for the "remote" policy.
	URL string `json:"url,omitempty"`
}

// EstimateSpec parameterizes TaskEstimate.
type EstimateSpec struct {
	// N is the total initial population; Delta the initial gap (same
	// parity as N).
	N     int `json:"n"`
	Delta int `json:"delta"`
	// Trials is the Monte-Carlo budget (0 = 1000).
	Trials int `json:"trials,omitempty"`
	// EarlyStop stops as soon as the Wilson interval settles the
	// comparison against Target (required > 0 when set).
	EarlyStop bool    `json:"early_stop,omitempty"`
	Target    float64 `json:"target,omitempty"`
}

// ThresholdSpec parameterizes TaskThreshold.
type ThresholdSpec struct {
	// N is the total initial population.
	N int `json:"n"`
	// Trials is the per-gap Monte-Carlo budget (0 = 2000).
	Trials int `json:"trials,omitempty"`
	// Target is the success probability defining the threshold (0 =
	// 1 − 1/n, the paper's criterion).
	Target float64 `json:"target,omitempty"`
	// MaxDelta caps the search (0 = n−2).
	MaxDelta int `json:"max_delta,omitempty"`
	// NoEarlyStop disables the sequential estimator (on by default).
	NoEarlyStop bool `json:"no_early_stop,omitempty"`
	// Hint warm-starts the search (0 = cold exponential search).
	Hint int `json:"hint,omitempty"`
}

// SweepSpec parameterizes TaskSweep.
type SweepSpec struct {
	// Grid is the set of population sizes (sorted and deduplicated).
	Grid []int `json:"grid"`
	// Trials is the per-gap budget; 0 selects the historical per-n rule
	// DefaultSweepTrials (2n clamped to [1000, 8000]).
	Trials int `json:"trials,omitempty"`
	// Target is the success probability (0 = 1 − 1/n per point).
	Target float64 `json:"target,omitempty"`
	// Lanes is the number of concurrent per-n searches (0 = 1).
	Lanes int `json:"lanes,omitempty"`
	// MaxDelta caps each search (0 = n−2).
	MaxDelta int `json:"max_delta,omitempty"`
	// Cold disables warm-started brackets.
	Cold bool `json:"cold,omitempty"`
	// NoEarlyStop disables the sequential estimator.
	NoEarlyStop bool `json:"no_early_stop,omitempty"`
	// Verbose asks front-ends to print every probed gap.
	Verbose bool `json:"verbose,omitempty"`
}

// SimulateSpec parameterizes TaskSimulate: batch runs of the model from an
// explicit initial state.
type SimulateSpec struct {
	// Runs is the number of independent runs.
	Runs int `json:"runs"`
	// A and B are the initial species counts for LV models.
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	// Init maps species names to initial counts for CRN models; unlisted
	// species start at 0.
	Init map[string]int `json:"init,omitempty"`
	// MaxSteps is the per-run event budget. Zero keeps each model's
	// historical semantics: the lv package default for LV chains,
	// unlimited for CRN models (whose front-end defaults the flag to a
	// 10M budget instead).
	MaxSteps int `json:"max_steps,omitempty"`
	// MaxTime is the per-run simulated-time budget for CRN models (0 =
	// unlimited); a positive value switches the engine to the Gillespie
	// clock.
	MaxTime float64 `json:"max_time,omitempty"`
	// Trace, Plot and Echo are presentation directives honoured by the
	// CLI front-ends (per-event trace / ASCII chart of the first run,
	// echo of the parsed network); the Runner's batch statistics ignore
	// them.
	Trace bool `json:"trace,omitempty"`
	Plot  bool `json:"plot,omitempty"`
	Echo  bool `json:"echo,omitempty"`
}

// ExactSpec parameterizes TaskExact: exact solutions of the first-step
// recurrence (Eq. 8 of the paper) on a truncated grid.
type ExactSpec struct {
	// A and B are the species counts to evaluate ρ at.
	A int `json:"a"`
	B int `json:"b"`
	// Tie is the value of the double-extinction state (0 = paper-strict,
	// 0.5 = fair tiebreak).
	Tie float64 `json:"tie,omitempty"`
	// Max is the grid ceiling (0 = the historical rule 4·(a+b)+40,
	// raised to 4·Table+40 when Table is larger).
	Max int `json:"max,omitempty"`
	// Table, when positive, evaluates the full ρ table up to this count
	// instead of the single state.
	Table int `json:"table,omitempty"`
	// Steps also computes expected consensus times.
	Steps bool `json:"steps,omitempty"`
}

// ExperimentSpec parameterizes TaskExperiment.
type ExperimentSpec struct {
	// ID is the registered experiment ID (internal/experiment.ByID).
	ID string `json:"id"`
	// Full selects the heavier recorded grids.
	Full bool `json:"full,omitempty"`
	// CSVDir, when non-empty, also writes per-table CSV files there.
	CSVDir string `json:"csv_dir,omitempty"`
	// ReportDir, when non-empty, also writes the JSON run manifest there.
	ReportDir string `json:"report_dir,omitempty"`
	// Kernel overrides the event loop of the population protocols the
	// experiment measures: "" (default batch), "batch", "per-event", or
	// "lockstep". A performance knob only — the kernels agree in law.
	Kernel string `json:"kernel,omitempty"`
}

// ReportSpec parameterizes TaskReport: documentation generation and
// manifest re-rendering.
type ReportSpec struct {
	// Design, when non-empty, writes the generated DESIGN.md there.
	Design string `json:"design,omitempty"`
	// Experiments, when non-empty, writes the generated EXPERIMENTS.md
	// there, reading manifests from Manifests.
	Experiments string `json:"experiments,omitempty"`
	Manifests   string `json:"manifests,omitempty"`
	// Render re-renders the manifest at Manifest: "ascii", "md", or "csv"
	// (csv writes into Out).
	Render   string `json:"render,omitempty"`
	Manifest string `json:"manifest,omitempty"`
	Out      string `json:"out,omitempty"`
}

// New returns a Spec of the given task with the current schema version.
func New(task Task) Spec {
	return Spec{Version: SpecVersion, Task: task}
}

// Validate checks that the spec is complete and internally consistent: the
// schema version matches, exactly the task-options field matching Task is
// set, the model (when required) is well-formed, and every parameter is in
// range. A valid spec is executable by a Runner.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("scenario: spec version %d, want %d", s.Version, SpecVersion)
	}
	set := map[Task]bool{
		TaskEstimate:   s.Estimate != nil,
		TaskThreshold:  s.Threshold != nil,
		TaskSweep:      s.Sweep != nil,
		TaskSimulate:   s.Simulate != nil,
		TaskExact:      s.Exact != nil,
		TaskExperiment: s.Experiment != nil,
		TaskReport:     s.Report != nil,
	}
	if _, known := set[s.Task]; !known {
		return fmt.Errorf("scenario: unknown task %q", s.Task)
	}
	for task, present := range set {
		if present && task != s.Task {
			return fmt.Errorf("scenario: %s options set on a %q spec", task, s.Task)
		}
	}
	if !set[s.Task] {
		return fmt.Errorf("scenario: %s spec without %s options", s.Task, s.Task)
	}
	if s.Workers < 0 {
		return fmt.Errorf("scenario: negative workers %d", s.Workers)
	}
	if s.Timeout != "" {
		d, err := time.ParseDuration(s.Timeout)
		if err != nil {
			return fmt.Errorf("scenario: invalid timeout %q: %w", s.Timeout, err)
		}
		if d <= 0 {
			return fmt.Errorf("scenario: non-positive timeout %q", s.Timeout)
		}
	}
	if err := s.Cache.validate(); err != nil {
		return err
	}

	needModel := s.Task != TaskExperiment && s.Task != TaskReport
	if needModel && s.Model == nil {
		return fmt.Errorf("scenario: %s spec without a model", s.Task)
	}
	if !needModel && s.Model != nil {
		return fmt.Errorf("scenario: %s spec does not take a model", s.Task)
	}
	if s.Model != nil {
		if err := s.Model.validate(); err != nil {
			return err
		}
	}

	switch s.Task {
	case TaskEstimate:
		e := s.Estimate
		if e.N < 3 {
			return fmt.Errorf("scenario: estimate population %d too small", e.N)
		}
		if e.Delta < 0 || e.Delta >= e.N {
			return fmt.Errorf("scenario: estimate gap %d infeasible for n=%d", e.Delta, e.N)
		}
		if (e.N-e.Delta)%2 != 0 {
			return fmt.Errorf("scenario: estimate n=%d and delta=%d have different parity", e.N, e.Delta)
		}
		if e.Trials < 0 {
			return fmt.Errorf("scenario: negative trials %d", e.Trials)
		}
		if e.EarlyStop && (e.Target <= 0 || e.Target >= 1) {
			return fmt.Errorf("scenario: early-stop estimate needs a target in (0, 1), got %v", e.Target)
		}
		if !e.EarlyStop && e.Target != 0 {
			return fmt.Errorf("scenario: estimate target %v without early_stop", e.Target)
		}
	case TaskThreshold:
		th := s.Threshold
		if th.N < 3 {
			return fmt.Errorf("scenario: threshold population %d too small", th.N)
		}
		if th.Trials < 0 || th.MaxDelta < 0 || th.Hint < 0 {
			return fmt.Errorf("scenario: negative threshold parameter")
		}
		if th.Target < 0 || th.Target >= 1 {
			return fmt.Errorf("scenario: threshold target %v outside [0, 1)", th.Target)
		}
	case TaskSweep:
		sw := s.Sweep
		if len(sw.Grid) == 0 {
			return fmt.Errorf("scenario: sweep with an empty population grid")
		}
		for _, n := range sw.Grid {
			if n < 4 {
				return fmt.Errorf("scenario: sweep population %d too small", n)
			}
		}
		if sw.Trials < 0 || sw.Lanes < 0 || sw.MaxDelta < 0 {
			return fmt.Errorf("scenario: negative sweep parameter")
		}
		if sw.Target < 0 || sw.Target >= 1 {
			return fmt.Errorf("scenario: sweep target %v outside [0, 1)", sw.Target)
		}
	case TaskSimulate:
		sm := s.Simulate
		if sm.Runs < 1 {
			return fmt.Errorf("scenario: simulate needs at least one run, got %d", sm.Runs)
		}
		if sm.MaxSteps < 0 || sm.MaxTime < 0 {
			return fmt.Errorf("scenario: negative simulate budget")
		}
		switch s.Model.Kind {
		case ModelLV:
			if sm.A < 0 || sm.B < 0 || sm.A+sm.B == 0 {
				return fmt.Errorf("scenario: infeasible LV initial state (%d, %d)", sm.A, sm.B)
			}
			if len(sm.Init) != 0 {
				return fmt.Errorf("scenario: init map set on an LV simulate spec")
			}
			if sm.MaxTime != 0 {
				return fmt.Errorf("scenario: max_time is not supported by the LV kernel")
			}
			if sm.Echo {
				return fmt.Errorf("scenario: echo set on an LV simulate spec")
			}
			if s.Model.LV.Engine == consensus.LVEngineSkip {
				return fmt.Errorf("scenario: the skip engine only runs consensus trials; simulate needs the event engine")
			}
		case ModelCRN:
			if sm.A != 0 || sm.B != 0 {
				return fmt.Errorf("scenario: a/b set on a CRN simulate spec (use init)")
			}
			for name, count := range sm.Init {
				if count < 0 {
					return fmt.Errorf("scenario: negative initial count %d for species %s", count, name)
				}
			}
			if sm.Plot {
				return fmt.Errorf("scenario: plot set on a CRN simulate spec")
			}
		default:
			return fmt.Errorf("scenario: simulate supports lv and crn models, not %q", s.Model.Kind)
		}
	case TaskExact:
		e := s.Exact
		if e.Table < 0 || e.Max < 0 {
			return fmt.Errorf("scenario: negative exact parameter")
		}
		if e.Table == 0 && (e.A < 1 || e.B < 1) {
			return fmt.Errorf("scenario: exact state (%d, %d) needs positive counts", e.A, e.B)
		}
		if e.Tie < 0 || e.Tie > 1 {
			return fmt.Errorf("scenario: exact tie value %v outside [0, 1]", e.Tie)
		}
		if s.Model.Kind == ModelProtocol {
			return fmt.Errorf("scenario: exact supports lv and crn models, not %q", s.Model.Kind)
		}
		if s.Model.LV != nil && s.Model.LV.Engine != "" {
			return fmt.Errorf("scenario: exact solves the chain without sampling; it takes no engine")
		}
	case TaskExperiment:
		if s.Experiment.ID == "" {
			return fmt.Errorf("scenario: experiment spec without an id")
		}
		if _, err := protocols.ParseKernel(s.Experiment.Kernel); err != nil {
			return err
		}
	case TaskReport:
		r := s.Report
		if r.Render != "" {
			if r.Design != "" || r.Experiments != "" {
				return fmt.Errorf("scenario: report render cannot be combined with design/experiments generation")
			}
			if r.Manifest == "" {
				return fmt.Errorf("scenario: report render without a manifest file")
			}
			switch r.Render {
			case "ascii", "md", "markdown":
			case "csv":
				if r.Out == "" {
					return fmt.Errorf("scenario: report render csv without an output directory")
				}
			default:
				return fmt.Errorf("scenario: unknown report render format %q", r.Render)
			}
		} else if r.Design == "" && r.Experiments == "" {
			return fmt.Errorf("scenario: report spec with nothing to do")
		}
		if r.Experiments != "" && r.Manifests == "" {
			return fmt.Errorf("scenario: report experiments generation without a manifest directory")
		}
	}
	return nil
}

func (c *CacheSpec) validate() error {
	if c == nil {
		return nil
	}
	switch c.Policy {
	case CacheOff, CacheMemory, CacheShared:
		if c.Path != "" {
			return fmt.Errorf("scenario: cache path %q with policy %q", c.Path, c.Policy)
		}
	case CacheFile:
		if c.Path == "" {
			return fmt.Errorf("scenario: file cache policy without a path")
		}
	case CacheRemote:
		if c.Path != "" {
			return fmt.Errorf("scenario: cache path %q with policy %q", c.Path, c.Policy)
		}
		if c.URL == "" {
			return fmt.Errorf("scenario: remote cache policy without a url")
		}
	default:
		return fmt.Errorf("scenario: unknown cache policy %q", c.Policy)
	}
	if c.URL != "" && c.Policy != CacheRemote {
		return fmt.Errorf("scenario: cache url %q with policy %q", c.URL, c.Policy)
	}
	return nil
}

// The cache policies a CacheSpec selects.
const (
	CacheOff    = "off"
	CacheMemory = "memory"
	CacheShared = "shared"
	CacheFile   = "file"
	CacheRemote = "remote"
)

// LocalPaths returns every local-filesystem path the spec would read or
// write when executed: cache files, CSV/manifest output directories, and
// the report task's documents. A network server refuses specs with local
// paths — a remote caller must not direct the serving process's filesystem.
func (s *Spec) LocalPaths() []string {
	var paths []string
	add := func(p string) {
		if p != "" {
			paths = append(paths, p)
		}
	}
	if s.Cache != nil {
		add(s.Cache.Path)
	}
	if s.Experiment != nil {
		add(s.Experiment.CSVDir)
		add(s.Experiment.ReportDir)
	}
	if s.Report != nil {
		add(s.Report.Design)
		add(s.Report.Experiments)
		add(s.Report.Manifests)
		add(s.Report.Manifest)
		add(s.Report.Out)
	}
	return paths
}

// ParseSpec decodes one spec from strict JSON: unknown fields are rejected,
// and the result is validated.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := trailingData(dec); err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ParseSpecs decodes either a single spec object or a JSON array of specs —
// the two forms WriteSpecs emits — strictly, validating every spec.
func ParseSpecs(data []byte) ([]Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var specs []Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&specs); err != nil {
			return nil, fmt.Errorf("scenario: parsing spec list: %w", err)
		}
		if err := trailingData(dec); err != nil {
			return nil, err
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("scenario: empty spec list")
		}
		for i := range specs {
			if err := specs[i].Validate(); err != nil {
				return nil, fmt.Errorf("spec %d: %w", i, err)
			}
		}
		return specs, nil
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return []Spec{s}, nil
}

func trailingData(dec *json.Decoder) error {
	if dec.More() {
		return fmt.Errorf("scenario: trailing data after spec")
	}
	return nil
}

// LoadSpecs reads specs from a file (see ParseSpecs).
func LoadSpecs(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading spec: %w", err)
	}
	return ParseSpecs(data)
}

// MarshalIndent renders the spec as indented JSON with a trailing newline —
// the canonical -dump-spec form.
func (s *Spec) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding spec: %w", err)
	}
	return append(data, '\n'), nil
}

// marshalSpecList renders several specs as an indented JSON array with a
// trailing newline.
func marshalSpecList(specs []Spec) ([]byte, error) {
	data, err := json.MarshalIndent(specs, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding specs: %w", err)
	}
	return append(data, '\n'), nil
}
