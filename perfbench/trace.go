package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, opened by the benchmark
// around its own call into a module (or at the progress events that mark a
// boundary inside a run). Parent 0 is the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of the traced run in memory. A nil *tracer is the
// untraced run: every method is a no-op and start returns 0.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: now, EndNS: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// durations returns the durations in seconds of the closed spans with the
// given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// write saves the spans as JSON under .bench_build/traces, next to the
// work directory.
func (t *tracer) write(cfg config, kind string) error {
	dir := filepath.Join(filepath.Dir(filepath.Dir(cfg.work)), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", cfg.workload, cfg.seed, kind))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", filepath.Clean(path))
	return nil
}
