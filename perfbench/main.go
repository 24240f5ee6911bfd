// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the public entry points — scenario.Runner in
// process, or the built cmd/serve binary over HTTP — checks every output,
// and prints its metrics. Run it through run.sh, which builds both binaries
// from the checkout first:
//
//	bash perfbench/run.sh --workload lv-sweep --seed 20240506 --seconds 50 --trace 0
//
// With --trace 0 it measures passes of the workload for --seconds seconds
// and reports the end-to-end metrics: the lower quartile of the passes'
// wall and CPU times and the median set-up time. With --trace 1 it runs
// untraced and traced passes in the order untraced, traced, traced,
// untraced, then a kernel phase of direct calls into the bottom layers, and reports the
// per-layer metrics from spans it opens around its own calls into each
// module. Human-readable lines go to standard output first;
// the last line is one JSON object with the keys correct, attempted, failed
// and metrics. Any failed output check makes the command exit with code 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed of the committed results/manifests runs.
const defaultSeed = 20240506

// workers is the Monte-Carlo worker budget of every workload: the two CPUs
// the benchmark was designed on.
const workers = 2

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	serveBin string
	work     string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's last output line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units maps every metric the benchmark reports to its unit; endToEnd and
// perLayer list the metrics of the untraced and the traced run, as
// BENCHMARK.json declares them.
var (
	endToEnd = []string{"setup_s", "wall_s", "cpu_s"}
	perLayer = []string{
		"rng.ns_per_draw",
		"lv.ns_per_event", "lv.events_per_trial", "lv.max_trial_event_share",
		"protocols.ns_per_trial",
		"mc.trials", "mc.trials_per_s", "mc.scaling_efficiency",
		"consensus.probes", "consensus.trials_per_probe", "consensus.probe_s_p50",
		"sweep.points", "sweep.probes_fresh", "sweep.probes_cached", "sweep.point_s_p50",
		"scenario.run_s.T1-NONE", "scenario.run_s.T1-SD", "scenario.run_s.T1-NSD",
		"serve.submit_ms_p50", "serve.queue_ms_p50", "serve.run_ms_p50", "serve.retries_503", "serve.cache_hit_frac",
		"trace.overhead_frac",
	}
	units = map[string]string{
		"setup_s": "s", "wall_s": "s", "cpu_s": "s",
		"rng.ns_per_draw": "ns",
		"lv.ns_per_event": "ns", "lv.events_per_trial": "count", "lv.max_trial_event_share": "ratio",
		"protocols.ns_per_trial": "ns",
		"mc.trials":              "count", "mc.trials_per_s": "1/s", "mc.scaling_efficiency": "ratio",
		"consensus.probes": "count", "consensus.trials_per_probe": "count", "consensus.probe_s_p50": "s",
		"sweep.points": "count", "sweep.probes_fresh": "count", "sweep.probes_cached": "count", "sweep.point_s_p50": "s",
		"scenario.run_s.T1-NONE": "s", "scenario.run_s.T1-SD": "s", "scenario.run_s.T1-NSD": "s",
		"serve.submit_ms_p50": "ms", "serve.queue_ms_p50": "ms", "serve.run_ms_p50": "ms",
		"serve.retries_503": "count", "serve.cache_hit_frac": "ratio",
		"trace.overhead_frac": "ratio",
	}
)

// bench carries one invocation's configuration and its check accounting.
type bench struct {
	cfg       config
	attempted int
	failed    int
	metrics   map[string]metric
}

// op counts one attempted operation; ok=false counts it as failed and
// prints why.
func (b *bench) op(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Printf("FAIL "+format+"\n", args...)
	}
}

// check records a failed output check that is not itself an operation.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failed++
		fmt.Printf("FAIL "+format+"\n", args...)
	}
}

func (b *bench) set(name string, value float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	b.metrics[name] = metric{Value: value, Unit: unit}
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: lv-sweep or serve-mixed")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 50, "measurement time of an untraced run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&cfg.serveBin, "serve-bin", "", "path of the built cmd/serve binary")
	probe := fs.Bool("setup-probe", false, "internal: run one set-up probe of the workload and exit")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for caches, journals and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A hung server or run must not keep the benchmark past its time
	// limit of 180 s; the set-up probes and servers are killed with it.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	if *probe {
		if err := setupProbe(ctx, cfg.workload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	b := &bench{cfg: cfg, metrics: map[string]metric{}}
	err := b.dispatch(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The traced run reads 0 for the layers a workload does not exercise;
	// the untraced run must have measured every end-to-end metric.
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	metrics := map[string]metric{}
	for _, name := range want {
		m, ok := b.metrics[name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured no %s\n", cfg.workload, name)
			return 1
		}
		m.Unit = units[name]
		metrics[name] = m
	}
	printMetricLines(metrics)
	out := outcome{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func (b *bench) dispatch(ctx context.Context) error {
	if b.cfg.serveBin == "" {
		return errors.New("missing -serve-bin; run the benchmark through perfbench/run.sh")
	}
	// The benchmark reads the committed manifests and example specs, so it
	// must run from the repository root.
	if _, err := os.Stat(filepath.Join("results", "manifests")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(b.cfg.work, fmt.Sprintf("%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b.cfg.work = work

	if b.cfg.workload == "serve-mixed" {
		return b.runServe(ctx)
	}
	w, ok := batchWorkloads[b.cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (known: lv-sweep, serve-mixed)", b.cfg.workload)
	}
	return b.runBatch(ctx, w)
}

// printMetricLines prints every reported metric by name and unit, one per
// line, ahead of the JSON result.
func printMetricLines(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("metric %s %.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}
