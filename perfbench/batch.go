package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lvmajority/internal/progress"
	"lvmajority/internal/report"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
)

// batchWorkload is an in-process workload: a fixed list of specs executed
// in order by a fresh scenario.Runner in every pass.
type batchWorkload struct {
	// specs builds the pass's specs. They run at the committed seed
	// whatever --seed says (see pinnedSeed).
	specs func() []scenario.Spec
	// warm is the set-up run: a small fixed spec on the workload's model,
	// which pays any lazy one-time cost of that model. It is kept small
	// and runs on one worker, so that set-up time measures start-up and
	// first use rather than the host's speed at Monte-Carlo work.
	warm func() scenario.Spec
	// kernel times direct calls into the bottom layers for the traced run;
	// --seed drives its samples.
	kernel func(b *bench, k *kernelPhase, pass *passResult) error
	// checks, if set, builds specs that the traced run executes once,
	// untimed, only to check their outputs.
	checks func() []scenario.Spec
}

// pinnedSeed is the seed of every in-process spec. The work a seed asks is
// not comparable from seed to seed: T1-NONE's heavy-tailed trial lengths
// make one run take 2 s to 16 s, and over seeds 1-5 a 3-state-am lockstep
// sweep up to n = 2048 ran 38.7k-49.8k trials in 5.7-8.4 s. A pinned input
// lets wall_s and cpu_s measure the program's whole cost — including how
// much work its estimators and search choose to do — rather than the seed.
const pinnedSeed = defaultSeed

func experimentSpec(id string) scenario.Spec {
	s := scenario.New(scenario.TaskExperiment)
	s.Seed = pinnedSeed
	s.Workers = workers
	s.Experiment = &scenario.ExperimentSpec{ID: id}
	return s
}

var batchWorkloads = map[string]batchWorkload{
	"lv-sweep": {
		specs: func() []scenario.Spec {
			return []scenario.Spec{experimentSpec("T1-SD"), experimentSpec("T1-NSD")}
		},
		warm: func() scenario.Spec {
			s := scenario.New(scenario.TaskThreshold)
			s.Seed = defaultSeed
			s.Workers = 1
			s.Model = &scenario.Model{Kind: scenario.ModelProtocol, Protocol: &scenario.ProtocolModel{Name: "lv-sd"}}
			s.Threshold = &scenario.ThresholdSpec{N: 32, Trials: 200}
			return s
		},
		kernel: kernelLVSweep,
		// T1-NONE's heavy-tailed trials make a pass too long and too
		// dependent on which worker draws the longest trial to time, but
		// its committed table is still checked.
		checks: func() []scenario.Spec {
			return []scenario.Spec{experimentSpec("T1-NONE")}
		},
	},
}

// point is one settled sweep point, from a progress point event.
type point struct {
	Scope     string
	N         int
	Threshold int
	Found     bool
}

// workCounts are the machine-independent counts of one pass.
type workCounts struct {
	Trials       int64
	ProbesFresh  int64
	ProbesCached int64
	Points       []point
}

func (c workCounts) String() string {
	var thr []string
	for _, p := range c.Points {
		v := "none"
		if p.Found {
			v = fmt.Sprint(p.Threshold)
		}
		thr = append(thr, fmt.Sprintf("%s:%d=%s", p.Scope, p.N, v))
	}
	return fmt.Sprintf("trials=%d probes_fresh=%d probes_cached=%d thresholds=[%s]",
		c.Trials, c.ProbesFresh, c.ProbesCached, strings.Join(thr, " "))
}

// passResult is the measurement of one pass.
type passResult struct {
	wall, cpu, allocMB float64
	counts             workCounts
	digest             string
	results            []*scenario.Result
	// runs holds each spec's Runner.Run wall time by scope.
	runs map[string]float64
	// probeTrials sums the trials of fresh probes.
	probeTrials int64
}

// observer is the progress hook of a pass. It counts work exactly in every
// pass and, in the traced pass, opens spans at the sweep point and probe
// boundaries the events mark.
type observer struct {
	tr     *tracer
	parent int // the running spec's scenario span

	probeTrials, fresh, cached atomic.Int64

	mu sync.Mutex
	// Trials by scope and population (see hook): counted from estimate
	// events, and from completed trial windows for runs without them.
	estTrials, windowTrials map[spanKey]int64
	// lastDone is the trial count of the latest estimate event.
	lastDone map[spanKey]int64
	points   []point
	// open spans of the traced pass, by point (delta 0) and by probe.
	pointSpans map[spanKey]int
	probeSpans map[spanKey]int
}

// spanKey identifies a sweep point or probe across its progress events.
type spanKey struct {
	scope    string
	n, delta int
}

func newObserver(tr *tracer) *observer {
	return &observer{tr: tr, estTrials: map[spanKey]int64{}, windowTrials: map[spanKey]int64{}, lastDone: map[spanKey]int64{},
		pointSpans: map[spanKey]int{}, probeSpans: map[spanKey]int{}}
}

func (o *observer) hook(e progress.Event) {
	switch e.Kind {
	case progress.KindEstimate:
		// Every estimator run reports its cumulative trial count at each
		// batch boundary, ending with its total. Runs at one scope and
		// population follow one another and share a batch size, so a
		// count that does not grow starts the next run.
		o.mu.Lock()
		k := spanKey{scope: e.Scope, n: e.N}
		if last := o.lastDone[k]; e.Done > last {
			o.estTrials[k] += e.Done - last
		} else {
			o.estTrials[k] += e.Done
		}
		o.lastDone[k] = e.Done
		o.mu.Unlock()
	case progress.KindTrials:
		// A Monte-Carlo run that is not an estimator's (T1-NONE's) reports
		// only trial windows; the last event of a full window has Done ==
		// Total.
		if e.Total > 0 && e.Done == e.Total {
			o.mu.Lock()
			o.windowTrials[spanKey{scope: e.Scope, n: e.N}] += e.Total
			o.mu.Unlock()
		}
	case progress.KindProbeStart:
		if o.tr != nil {
			o.mu.Lock()
			pk := spanKey{e.Scope, e.N, 0}
			ps, ok := o.pointSpans[pk]
			if !ok {
				ps = o.tr.start("sweep.point", o.parent)
				o.pointSpans[pk] = ps
			}
			o.probeSpans[spanKey{e.Scope, e.N, e.Delta}] = o.tr.start("consensus.probe", ps)
			o.mu.Unlock()
		}
	case progress.KindProbe:
		if e.Cached {
			o.cached.Add(1)
		} else if e.Estimate != nil {
			o.fresh.Add(1)
			o.probeTrials.Add(int64(e.Estimate.Trials))
		}
		if o.tr != nil {
			o.mu.Lock()
			k := spanKey{e.Scope, e.N, e.Delta}
			if id, ok := o.probeSpans[k]; ok {
				if e.Cached {
					o.tr.rename(id, "sweep.probe_cached")
				}
				o.tr.end(id)
				delete(o.probeSpans, k)
			}
			o.mu.Unlock()
		}
	case progress.KindPoint:
		o.mu.Lock()
		o.points = append(o.points, point{Scope: e.Scope, N: e.N, Threshold: e.Threshold, Found: e.Found})
		if o.tr != nil {
			pk := spanKey{e.Scope, e.N, 0}
			if id, ok := o.pointSpans[pk]; ok {
				o.tr.end(id)
				delete(o.pointSpans, pk)
			}
		}
		o.mu.Unlock()
	}
}

func (o *observer) counts() workCounts {
	o.mu.Lock()
	pts := append([]point(nil), o.points...)
	var trials int64
	for k, t := range o.windowTrials {
		if _, ok := o.estTrials[k]; !ok {
			trials += t
		}
	}
	for _, t := range o.estTrials {
		trials += t
	}
	o.mu.Unlock()
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Scope != pts[j].Scope {
			return pts[i].Scope < pts[j].Scope
		}
		return pts[i].N < pts[j].N
	})
	return workCounts{Trials: trials, ProbesFresh: o.fresh.Load(), ProbesCached: o.cached.Load(), Points: pts}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// committedTables returns the committed manifest tables of an experiment
// spec run at the committed seed, or nil when there is nothing to compare.
func committedTables(spec scenario.Spec) ([]byte, error) {
	if spec.Task != scenario.TaskExperiment || spec.Seed != defaultSeed {
		return nil, nil
	}
	m, err := report.Load(filepath.Join("results", "manifests", report.Filename(spec.Experiment.ID)))
	if err != nil {
		return nil, err
	}
	return json.Marshal(m.Tables)
}

// runPass executes the workload's specs once on a fresh Runner.
func (b *bench) runPass(ctx context.Context, w batchWorkload, tr *tracer) (*passResult, error) {
	specs := w.specs()
	runner := &scenario.Runner{}
	obs := newObserver(tr)
	results := make([]*scenario.Result, len(specs))
	errs := make([]error, len(specs))
	runs := map[string]float64{}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for i, spec := range specs {
		scope := scopeName(spec)
		obs.parent = tr.start("scenario.run."+scope, 0)
		t := time.Now()
		results[i], errs[i] = runner.RunWithProgress(ctx, spec, obs.hook)
		runs[scope] = time.Since(t).Seconds()
		tr.end(obs.parent)
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)

	p := &passResult{
		wall:        wall,
		cpu:         cpu,
		allocMB:     float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		counts:      obs.counts(),
		results:     results,
		runs:        runs,
		probeTrials: obs.probeTrials.Load(),
	}
	h := sha256.New()
	for i, spec := range specs {
		name := fmt.Sprintf("%s seed %d", scopeName(spec), spec.Seed)
		b.op(errs[i] == nil, "%s: %v", name, errs[i])
		if errs[i] != nil {
			continue
		}
		tables, err := json.Marshal(results[i].Manifests[0].Tables)
		if err != nil {
			return nil, err
		}
		h.Write(tables)
		want, err := committedTables(spec)
		if err != nil {
			return nil, err
		}
		if want != nil {
			b.check(string(tables) == string(want), "%s: tables differ from results/manifests", name)
		}
	}
	for _, pt := range p.counts.Points {
		b.check(pt.Found, "%s n=%d: no threshold found", pt.Scope, pt.N)
	}
	// In a workload that searches, every trial is a probe's.
	b.check(p.counts.Trials > 0 && (p.probeTrials == 0 || p.probeTrials == p.counts.Trials),
		"pass trial count %d disagrees with its fresh probes' %d trials", p.counts.Trials, p.probeTrials)
	fmt.Fprintf(h, "%s", p.counts)
	p.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return p, nil
}

func scopeName(spec scenario.Spec) string {
	if spec.Experiment != nil {
		return spec.Experiment.ID
	}
	return string(spec.Task)
}

// setupProbes times standing up the workload from nothing, n times: a
// fresh process that starts, builds the workload's smallest spec, runs it
// on a new Runner and exits — so any one-time cost a later change moves
// into process start or first use shows here. A run interleaves the probes
// with its passes and reports their median, so that a slow spell of the
// host weighs on only a few of them.
func (b *bench) setupProbes(ctx context.Context, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self, "-setup-probe", "-workload", b.cfg.workload, "-serve-bin", b.cfg.serveBin)
		t := time.Now()
		out, err := cmd.CombinedOutput()
		times = append(times, time.Since(t).Seconds())
		b.op(err == nil, "set-up run: %v: %s", err, out)
	}
	return times, nil
}

// setupPerPass is the number of set-up probes a run makes before each pass.
const setupPerPass = 4

// setupProbe is the child process of setupProbes. Its spec is fixed, not drawn
// from the workload seed: set-up is the same fixed cost at every seed.
func setupProbe(ctx context.Context, workload string) error {
	w, ok := batchWorkloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	spec := w.warm()
	data, err := spec.MarshalIndent()
	if err != nil {
		return err
	}
	parsed, err := scenario.ParseSpec(data)
	if err != nil {
		return err
	}
	_, err = (&scenario.Runner{}).Run(ctx, parsed)
	return err
}

func (b *bench) runBatch(ctx context.Context, w batchWorkload) error {
	if b.cfg.trace {
		return b.tracedBatch(ctx, w)
	}
	var passes []*passResult
	var setup []float64
	start := time.Now()
	for b.morePasses(len(passes), start) {
		times, err := b.setupProbes(ctx, setupPerPass)
		if err != nil {
			return err
		}
		setup = append(setup, times...)
		p, err := b.runPass(ctx, w, nil)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Printf("pass %d wall_s=%.3f cpu_s=%.3f alloc_mb=%.1f %s digest=%s\n",
			len(passes)+1, p.wall, p.cpu, p.allocMB, p.counts, p.digest)
		passes = append(passes, p)
	}
	b.comparePasses(passes)

	var wall, cpu, alloc []float64
	for _, p := range passes {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, p.allocMB)
	}
	runsPerPass := float64(len(passes[0].runs))
	fmt.Printf("e2e alloc_mb %.2f MB (median of %d passes)\n", median(alloc), len(passes))
	fmt.Printf("e2e runs_per_s %.4f 1/s\n", runsPerPass/median(wall))
	fmt.Printf("e2e error_rate %.4f ratio (%d of %d operations)\n", float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	printQuantiles(wall, cpu)
	b.set("setup_s", median(setup))
	b.set("wall_s", lowerQuartile(wall))
	b.set("cpu_s", lowerQuartile(cpu))
	return nil
}

// lowerQuartile returns the lower quartile of a run's pass times, which
// wall_s and cpu_s report. Every pass runs the same input, and the shared
// host only ever slows a pass down, by 10-40% for seconds to minutes at a
// time; the fast end of a run's passes estimates the program's own cost
// more steadily than the median pass does, and the quartile more steadily
// than the single fastest pass when the host is busy.
func lowerQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

// printQuantiles prints the spread of a run's pass times.
func printQuantiles(wall, cpu []float64) {
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"wall_s", wall}, {"cpu_s", cpu}} {
		fmt.Printf("e2e %s passes=%d min=%.4f p10=%.4f p25=%.4f p50=%.4f max=%.4f\n", m.name, len(m.xs),
			quantile(m.xs, 0), quantile(m.xs, 0.1), quantile(m.xs, 0.25), quantile(m.xs, 0.5), quantile(m.xs, 1))
	}
}

// morePasses reports whether a run that has made n passes since start
// makes another: always up to two, then only if a pass of the mean length
// so far still ends within --seconds.
func (b *bench) morePasses(n int, start time.Time) bool {
	if n < 2 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(n) <= time.Duration(b.cfg.seconds)*time.Second
}

// comparePasses fails the run when passes of the same code at one seed
// disagree on outputs or work counts.
func (b *bench) comparePasses(passes []*passResult) {
	for i, p := range passes[1:] {
		b.check(p.digest == passes[0].digest, "pass %d output digest %s differs from pass 1's %s", i+2, p.digest, passes[0].digest)
		b.check(p.counts.String() == passes[0].counts.String(), "pass %d work counts differ from pass 1's:\n  %s\n  %s", i+2, p.counts, passes[0].counts)
	}
}

// overheadOrder is the order of the traced run's untraced (false) and
// traced (true) passes: symmetric, so a steady drift of the host's speed
// during the run weighs on both sides alike.
var overheadOrder = []bool{false, true, true, false}

// overhead is the traced passes' total wall time over the untraced
// passes', minus 1.
func overhead(walls []float64) float64 {
	var plain, traced float64
	for i, t := range overheadOrder {
		if t {
			traced += walls[i]
		} else {
			plain += walls[i]
		}
	}
	return traced/plain - 1
}

func (b *bench) tracedBatch(ctx context.Context, w batchWorkload) error {
	tr := newTracer()
	var passes []*passResult
	var walls []float64
	var traced *passResult
	for _, t := range overheadOrder {
		var ptr *tracer
		if t {
			ptr = tr
		}
		p, err := b.runPass(ctx, w, ptr)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		kind := "untraced"
		if t {
			kind, traced = "traced", p
		}
		fmt.Printf("%-8s pass wall_s=%.3f %s digest=%s\n", kind, p.wall, p.counts, p.digest)
		passes = append(passes, p)
		walls = append(walls, p.wall)
	}
	b.comparePasses(passes)

	k := &kernelPhase{tr: tr}
	if err := w.kernel(b, k, passes[0]); err != nil {
		return err
	}
	k.report(b)
	if w.checks != nil {
		p, err := b.runPass(ctx, batchWorkload{specs: w.checks}, nil)
		if err != nil {
			return err
		}
		for scope, seconds := range p.runs {
			b.set("scenario.run_s."+scope, seconds)
		}
	}

	// The traced passes' spans are pooled; the counts are one pass's.
	c := traced.counts
	b.set("mc.trials", float64(c.Trials))
	b.set("mc.trials_per_s", float64(c.Trials)/traced.wall)
	b.set("consensus.probes", float64(c.ProbesFresh))
	b.set("consensus.trials_per_probe", ratio(float64(traced.probeTrials), float64(c.ProbesFresh)))
	b.set("consensus.probe_s_p50", median(tr.durations("consensus.probe")))
	b.set("sweep.points", float64(len(c.Points)))
	b.set("sweep.probes_fresh", float64(c.ProbesFresh))
	b.set("sweep.probes_cached", float64(c.ProbesCached))
	b.set("sweep.point_s_p50", median(tr.durations("sweep.point")))
	for scope, seconds := range traced.runs {
		b.set("scenario.run_s."+scope, seconds)
	}
	b.set("trace.overhead_frac", overhead(walls))
	return tr.write(b.cfg, "traced")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is stats.Quantile with 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}
