package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/progress"
	"lvmajority/internal/rng"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
)

// The serve-mixed request mix. Every cycle of eight requests holds two of
// each example spec (examples/fleet/specs) and two small 3-state-am
// sweeps under the shared cache policy — one repeating a pooled
// (spec, seed) pair, so it reads the cache, and one with a fresh seed, so
// it misses and inserts. The cycle's order and every spec seed come from
// the workload seed.
const (
	cyclesPerPass = 25
	poolSize      = 8
	sweepPool     = 4
)

var templates = []string{"estimate_3majority.json", "estimate_voter.json", "threshold_3state.json"}

// request is one distinct spec of the mix with its in-process reference.
type request struct {
	body   []byte
	digest string // canonical result of the in-process reference run
	trials int64  // trials the spec requests, from the reference run
}

// mix builds the distinct specs and the pass's request order.
func mix(seed uint64) ([]scenario.Spec, []int, error) {
	var specs []scenario.Spec
	src := rng.NewStream(seed, 0x5e7e)
	newSeed := func() uint64 { return src.Uint64() % 1_000_000_000 }
	pools := make([][]int, len(templates)+1)
	for i, name := range templates {
		data, err := os.ReadFile(filepath.Join("examples", "fleet", "specs", name))
		if err != nil {
			return nil, nil, err
		}
		for j := 0; j < poolSize; j++ {
			s, err := scenario.ParseSpec(data)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", name, err)
			}
			s.Seed = newSeed()
			pools[i] = append(pools[i], len(specs))
			specs = append(specs, s)
		}
	}
	sweepSpec := func() scenario.Spec {
		s := scenario.New(scenario.TaskSweep)
		s.Seed = newSeed()
		s.Model = &scenario.Model{Kind: scenario.ModelProtocol, Protocol: &scenario.ProtocolModel{Name: "3-state-am"}}
		s.Sweep = &scenario.SweepSpec{Grid: []int{24, 32}, Trials: 200, Target: 0.9}
		s.Cache = &scenario.CacheSpec{Policy: scenario.CacheShared}
		return s
	}
	pooled := len(templates)
	for j := 0; j < sweepPool; j++ {
		pools[pooled] = append(pools[pooled], len(specs))
		specs = append(specs, sweepSpec())
	}
	var order []int
	for c := 0; c < cyclesPerPass; c++ {
		cycle := []int{}
		for i := range templates {
			for r := 0; r < 2; r++ {
				cycle = append(cycle, pools[i][src.Intn(poolSize)])
			}
		}
		cycle = append(cycle, pools[pooled][src.Intn(sweepPool)], len(specs))
		specs = append(specs, sweepSpec())
		src.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		order = append(order, cycle...)
	}
	return specs, order, nil
}

// canonical reduces a run result to what must match between the server
// and the in-process reference: the typed estimate, threshold and sweep
// points, and the result tables without captions. Provenance (times,
// versions) and cache accounting (which depends on what the shared cache
// already held) are left out.
func canonical(r *scenario.Result) (string, error) {
	type table struct {
		Title   string
		Columns []string
		Cells   json.RawMessage
	}
	var v struct {
		Estimate  *stats.BernoulliEstimate
		Threshold *consensus.ThresholdResult
		Points    []consensus.ThresholdResult
		Tables    []table
	}
	v.Estimate, v.Threshold = r.Estimate, r.Threshold
	if r.Sweep != nil {
		for _, p := range r.Sweep.Points {
			v.Points = append(v.Points, p.ThresholdResult)
		}
	}
	for _, m := range r.Manifests {
		for _, t := range m.Tables {
			data, err := json.Marshal(t)
			if err != nil {
				return "", err
			}
			var cells struct {
				Cells json.RawMessage `json:"cells"`
			}
			if err := json.Unmarshal(data, &cells); err != nil {
				return "", err
			}
			v.Tables = append(v.Tables, table{Title: t.Title, Columns: t.Columns, Cells: cells.Cells})
		}
	}
	data, err := json.Marshal(v)
	return string(data), err
}

// references runs every distinct spec in process, untimed, through the
// same JSON the server returns, so both sides reduce identically. Each
// spec's trials are counted from its progress events, as in a batch pass.
func references(ctx context.Context, specs []scenario.Spec) ([]request, error) {
	runner := &scenario.Runner{}
	reqs := make([]request, len(specs))
	for i, s := range specs {
		body, err := s.MarshalIndent()
		if err != nil {
			return nil, err
		}
		obs := newObserver(nil)
		res, err := runner.RunWithProgress(ctx, s, obs.hook)
		if err != nil {
			return nil, fmt.Errorf("reference run of spec %d: %w", i, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		var back scenario.Result
		if err := json.Unmarshal(data, &back); err != nil {
			return nil, err
		}
		digest, err := canonical(&back)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, digest: digest, trials: obs.counts().Trials}
	}
	return reqs, nil
}

// server is one running cmd/serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *tailBuffer
	done   chan struct{} // closed when the stderr reader has finished
}

// tailBuffer keeps the last 64 KiB written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 64<<10 {
		t.buf = t.buf[len(t.buf)-64<<10:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

var listening = regexp.MustCompile(`listening on (\S+)`)

// startServer spawns cmd/serve on a free localhost port with a fresh
// journal directory and waits until healthz answers. The returned duration
// runs from spawn to the first healthz OK.
func startServer(ctx context.Context, bin, journal string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-runners", strconv.Itoa(workers), "-journal", journal)
	// The server must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, stderr: &tailBuffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(s.stderr, line)
			if m := listening.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		s.stop()
		return nil, 0, fmt.Errorf("serve exited before listening:\n%s", s.stderr)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("serve did not listen within 30s:\n%s", s.stderr)
	case <-ctx.Done():
		s.stop()
		return nil, 0, ctx.Err()
	}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second || ctx.Err() != nil {
			s.stop()
			return nil, 0, fmt.Errorf("serve healthz not OK within 30s:\n%s", s.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the server and waits for it and its stderr reader.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already-exited is fine: Wait reaps it either way
	<-s.done
	_ = s.cmd.Wait() // a killed process reports its signal; nothing to act on
}

// cpuSeconds returns the CPU time the server's threads have run, summed
// from /proc/<pid>/task/*/schedstat, whose first field is nanoseconds on
// the CPU. The server keeps its threads for its whole life, so no
// thread's time is lost.
func (s *server) cpuSeconds() (float64, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for the server's threads: %v", err)
	}
	var ns int64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, fmt.Errorf("%s: empty", f)
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// cacheCounters reads the shared probe cache's hit and miss counters.
func (s *server) cacheCounters(c *http.Client) (hits, misses int64, err error) {
	resp, err := c.Get(s.base + "/v1/healthz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, err
	}
	return h.Cache.Hits, h.Cache.Misses, nil
}

// sample is the client-side timing of one request: submit is the POST
// round trip; queue and run are the gaps between the SSE arrivals of the
// queued, running and terminal phases; total runs from the POST to the
// terminal phase.
type sample struct {
	submit, queue, run, total time.Duration
	retries                   int
}

// client is one closed-loop caller holding at most one connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do submits one spec, follows its SSE stream to the terminal phase, and
// fetches the run record. The record is returned undecoded: decoding waits
// until the pass is over, so the clients spend as little CPU as they can
// while the server is measured.
func (c *client) do(ctx context.Context, body []byte) ([]byte, sample, error) {
	var sm sample
	t0 := time.Now()
	var id int
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			return nil, sm, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return nil, sm, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, sm, err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			sm.retries++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return nil, sm, fmt.Errorf("submit: %s: %s", resp.Status, data)
		}
		var sub struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(data, &sub); err != nil {
			return nil, sm, err
		}
		id = sub.ID
		break
	}
	sm.submit = time.Since(t0)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/runs/%d/events", c.base, id), nil)
	if err != nil {
		return nil, sm, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, sm, err
	}
	var queued, running, terminal time.Time
	var phase string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	kind := ""
	for sc.Scan() {
		line := sc.Text()
		if k, ok := strings.CutPrefix(line, "event: "); ok {
			kind = k
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || kind != string(progress.KindPhase) {
			continue
		}
		var e progress.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			resp.Body.Close()
			return nil, sm, err
		}
		if e.Kind != progress.KindPhase || e.Scope != fmt.Sprintf("run-%d", id) {
			continue
		}
		switch e.Phase {
		case "queued":
			queued = time.Now()
		case "running":
			running = time.Now()
		default:
			terminal, phase = time.Now(), e.Phase
		}
	}
	err = sc.Err()
	resp.Body.Close()
	if err != nil {
		return nil, sm, err
	}
	if terminal.IsZero() || queued.IsZero() {
		return nil, sm, fmt.Errorf("run %d: event stream ended without queued and terminal phases", id)
	}
	if running.IsZero() {
		running = terminal
	}
	sm.queue, sm.run, sm.total = running.Sub(queued), terminal.Sub(running), terminal.Sub(t0)
	if phase != "done" {
		return nil, sm, fmt.Errorf("run %d ended %s", id, phase)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/runs/%d", c.base, id), nil)
	if err != nil {
		return nil, sm, err
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return nil, sm, err
	}
	defer resp.Body.Close()
	record, err := io.ReadAll(resp.Body)
	return record, sm, err
}

// resultDigest decodes a run record and reduces its result canonically.
func resultDigest(record []byte) (string, error) {
	var got struct {
		Status string           `json:"status"`
		Result *scenario.Result `json:"result"`
	}
	if err := json.Unmarshal(record, &got); err != nil {
		return "", err
	}
	if got.Status != "done" || got.Result == nil {
		return "", fmt.Errorf("status %q without a result", got.Status)
	}
	return canonical(got.Result)
}

// servePass is the measurement of one pass against a fresh server.
type servePass struct {
	setup, wall, cpu float64
	samples          []sample
	trials           int64
	hits, misses     int64
	digest           string
}

// runServePass starts a fresh server, drives the request order through
// two closed-loop clients, checks every result against its reference, and
// stops the server.
func (b *bench) runServePass(ctx context.Context, reqs []request, order []int, tr *tracer) (*servePass, error) {
	journal, err := os.MkdirTemp(b.cfg.work, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(journal)
	srv, setup, err := startServer(ctx, b.cfg.serveBin, journal)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	clients := []*client{newClient(srv.base), newClient(srv.base)}
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
	}()
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	samples := make([]sample, len(order))
	records := make([][]byte, len(order))
	errs := make([]error, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) || ctx.Err() != nil {
					return
				}
				id := tr.start("serve.request", 0)
				records[i], samples[i], errs[i] = c.do(ctx, reqs[order[i]].body)
				tr.end(id)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	hits, misses, err := srv.cacheCounters(clients[0].http)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	p := &servePass{setup: setup.Seconds(), wall: wall, cpu: cpu1 - cpu0, samples: samples, hits: hits, misses: misses}
	h := sha256.New()
	failed := 0
	for i, idx := range order {
		p.trials += reqs[idx].trials
		var got string
		err := errs[i]
		if err == nil {
			got, err = resultDigest(records[i])
		}
		if err == nil && got != reqs[idx].digest {
			err = errors.New("result differs from the in-process reference")
		}
		b.op(err == nil, "request %d (spec %d): %v", i, idx, err)
		if err != nil {
			failed++
		}
		h.Write([]byte(got))
	}
	if failed > 0 {
		fmt.Printf("server stderr tail:\n%s\n", srv.stderr)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return p, nil
}

func durationsMS(samples []sample, pick func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(pick(s).Nanoseconds()) / 1e6
	}
	return out
}

func (b *bench) runServe(ctx context.Context) error {
	specs, order, err := mix(b.cfg.seed)
	if err != nil {
		return err
	}
	reqs, err := references(ctx, specs)
	if err != nil {
		return err
	}
	fmt.Printf("serve-mixed: %d distinct specs, %d requests per pass, 2 closed-loop clients\n", len(specs), len(order))
	if b.cfg.trace {
		return b.tracedServe(ctx, reqs, order)
	}

	var passes []*servePass
	start := time.Now()
	for b.morePasses(len(passes), start) {
		p, err := b.runServePass(ctx, reqs, order, nil)
		if err != nil {
			return err
		}
		lat := durationsMS(p.samples, func(s sample) time.Duration { return s.total })
		fmt.Printf("pass %d setup_s=%.3f wall_s=%.3f server_cpu_s=%.2f runs_per_s=%.1f latency_p50_ms=%.2f trials=%d cache_hits=%d cache_misses=%d %s\n",
			len(passes)+1, p.setup, p.wall, p.cpu, float64(len(order))/p.wall, median(lat), p.trials, p.hits, p.misses, p.digest)
		passes = append(passes, p)
	}
	for i, p := range passes[1:] {
		b.check(p.digest == passes[0].digest, "pass %d (%s) differs from pass 1 (%s)", i+2, p.digest, passes[0].digest)
	}

	var setup, wall, cpu []float64
	var all []sample
	for _, p := range passes {
		setup = append(setup, p.setup)
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		all = append(all, p.samples...)
	}
	lat := durationsMS(all, func(s sample) time.Duration { return s.total })
	fmt.Printf("e2e runs_per_s %.2f 1/s (median of %d passes of %d requests)\n", float64(len(order))/median(wall), len(passes), len(order))
	fmt.Printf("e2e latency_p50_ms %.3f ms (%d samples)\n", median(lat), len(lat))
	if len(lat) >= 100 {
		fmt.Printf("e2e latency_p90_ms %.3f ms (%d samples beyond it)\n", quantile(lat, 0.9), len(lat)/10)
	}
	fmt.Printf("e2e error_rate %.4f ratio (%d of %d operations)\n", float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	b.set("setup_s", median(setup))
	printQuantiles(wall, cpu)
	b.set("wall_s", lowerQuartile(wall))
	b.set("cpu_s", lowerQuartile(cpu))
	return nil
}

func (b *bench) tracedServe(ctx context.Context, reqs []request, order []int) error {
	tr := newTracer()
	var passes []*servePass
	var walls []float64
	var traced *servePass
	for _, t := range overheadOrder {
		var ptr *tracer
		if t {
			ptr = tr
		}
		p, err := b.runServePass(ctx, reqs, order, ptr)
		if err != nil {
			return err
		}
		kind := "untraced"
		if t {
			kind, traced = "traced", p
		}
		fmt.Printf("%-8s pass wall_s=%.3f %s\n", kind, p.wall, p.digest)
		passes = append(passes, p)
		walls = append(walls, p.wall)
	}
	for i, p := range passes[1:] {
		b.check(p.digest == passes[0].digest, "pass %d (%s) differs from the first untraced pass (%s)", i+2, p.digest, passes[0].digest)
	}

	k := &kernelPhase{tr: tr}
	k.timeRNG(b.cfg.seed)
	p, err := scenario.ProtocolByName("3-majority")
	if err != nil {
		return err
	}
	if err := k.timeScaling(b, p, 64, 8, 20000, b.cfg.seed); err != nil {
		return err
	}
	if err := timeLockstep(k, b.cfg.seed); err != nil {
		return err
	}
	k.report(b)

	b.set("mc.trials", float64(traced.trials))
	b.set("mc.trials_per_s", float64(traced.trials)/traced.wall)
	b.set("sweep.probes_fresh", float64(traced.misses))
	b.set("sweep.probes_cached", float64(traced.hits))
	ms := func(pick func(sample) time.Duration) float64 { return median(durationsMS(traced.samples, pick)) }
	retries := 0
	for _, s := range traced.samples {
		retries += s.retries
	}
	b.set("serve.submit_ms_p50", ms(func(s sample) time.Duration { return s.submit }))
	b.set("serve.queue_ms_p50", ms(func(s sample) time.Duration { return s.queue }))
	b.set("serve.run_ms_p50", ms(func(s sample) time.Duration { return s.run }))
	b.set("serve.retries_503", float64(retries))
	b.set("serve.cache_hit_frac", ratio(float64(traced.hits), float64(traced.hits+traced.misses)))
	b.set("trace.overhead_frac", overhead(walls))
	return tr.write(b.cfg, "traced")
}

// lockstepStates are Ψ(n) of 3-state-am at the committed seed for
// n = 256, 512 and 1024: {n, Ψ(n)}.
var lockstepStates = [][2]int{{256, 40}, {512, 64}, {1024, 94}}

// timeLockstep times the lockstep kernel of 3-state-am, the protocol of
// the mix's threshold specs and sweeps, at lockstepStates.
func timeLockstep(k *kernelPhase, seed uint64) error {
	m := &scenario.Model{Kind: scenario.ModelProtocol, Protocol: &scenario.ProtocolModel{Name: "3-state-am", Kernel: "lockstep"}}
	p, err := m.BuildProtocol()
	if err != nil {
		return err
	}
	for _, st := range lockstepStates {
		if err := k.timeBlock(p, st[0], st[1], seed, 8); err != nil {
			return err
		}
	}
	return nil
}
