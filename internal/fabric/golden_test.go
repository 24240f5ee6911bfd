package fabric

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"lvmajority/internal/scenario"
	"lvmajority/internal/sweep"
)

// The fleet-vs-local equivalence matrix: the fabric variant of the
// scenario package's TestRunnerReproducesCommittedManifests (which the
// import direction keeps over there — fabric imports scenario, so the
// manifest oracle for fleet execution lives here). Every spec in the
// committed fleet corpus, plus a sweep that exercises the probe cache,
// runs (a) purely locally, (b) through a 1-worker fleet, and (c) through a
// 3-worker fleet under an adversarial shard assignment; the full JSON-
// rendered manifests must be byte-identical across all three.

// corpusSpecs loads the committed loadgen corpus and appends a sweep spec
// so the matrix also covers the sweep/probe-cache path the corpus's
// server-submittable specs avoid, and an LV threshold search on the skip
// engine, which workers must rebuild from the wire model.
func corpusSpecs(t *testing.T) []scenario.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "fleet", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		t.Fatal("no committed fleet corpus specs")
	}
	var specs []scenario.Spec
	for _, path := range paths {
		loaded, err := scenario.LoadSpecs(path)
		if err != nil {
			t.Fatalf("corpus %s: %v", path, err)
		}
		specs = append(specs, loaded...)
	}
	sweepSpec := scenario.New(scenario.TaskSweep)
	sweepSpec.Model = &scenario.Model{Kind: scenario.ModelProtocol, Protocol: &scenario.ProtocolModel{Name: "voter"}}
	sweepSpec.Seed = 404
	sweepSpec.Sweep = &scenario.SweepSpec{Grid: []int{16, 32}, Trials: 300, Target: 0.9, Lanes: 2}
	sweepSpec.Cache = &scenario.CacheSpec{Policy: scenario.CacheShared}
	skipSpec := scenario.New(scenario.TaskThreshold)
	skipSpec.Model = &scenario.Model{Kind: scenario.ModelLV, LV: &scenario.LVModel{
		Beta: 1, Death: 1, Alpha0: 1, Alpha1: 1, Competition: "nsd", Engine: "skip",
	}}
	skipSpec.Seed = 405
	skipSpec.Threshold = &scenario.ThresholdSpec{N: 256, Trials: 600}
	specs = append(specs, sweepSpec, skipSpec)
	return specs
}

// runSpec executes one spec and renders its manifests canonically. Wall
// time is the one provenance field that legitimately varies between runs
// (the scenario package's manifest oracle excludes it too); it is zeroed so
// the rest of the document must match to the byte.
func runSpec(t *testing.T, r *scenario.Runner, spec scenario.Spec) []byte {
	t.Helper()
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Manifests)
	if err != nil {
		t.Fatal(err)
	}
	var docs []map[string]json.RawMessage
	if err := json.Unmarshal(data, &docs); err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		if _, ok := doc["wall_time_ns"]; ok {
			doc["wall_time_ns"] = json.RawMessage("0")
		}
	}
	if data, err = json.Marshal(docs); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFleetReproducesLocalManifests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus three times; skipped with -short")
	}
	specs := corpusSpecs(t)
	zero := func() time.Time { return time.Time{} }

	// The local reference: a Runner with no probe factory at all.
	want := make([][]byte, len(specs))
	local := &scenario.Runner{Now: zero, Cache: sweep.NewCache()}
	for i, spec := range specs {
		want[i] = runSpec(t, local, spec)
	}

	for _, tc := range []struct {
		name        string
		workers     int
		adversarial bool
	}{
		{"1-worker", 1, false},
		{"3-workers-adversarial", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{ShardTrials: 64}
			var infos []WorkerInfo
			for i := 0; i < tc.workers; i++ {
				info, _ := startWorker(t, []string{"gold-a", "gold-b", "gold-c"}[i])
				infos = append(infos, info)
			}
			if tc.adversarial {
				// Pin every shard to the lexicographically last worker:
				// assignment must not matter, so the worst imbalance is as
				// good as the fairest.
				cfg.Assign = func(live []string, lo, hi int) string { return live[len(live)-1] }
			}
			coord := newTestCoordinator(t, cfg)
			for _, info := range infos {
				if _, err := coord.Register(info); err != nil {
					t.Fatal(err)
				}
			}
			fleet := &scenario.Runner{Now: zero, Cache: sweep.NewCache(), Probes: coord.Probes()}
			for i, spec := range specs {
				got := runSpec(t, fleet, spec)
				if string(got) != string(want[i]) {
					t.Errorf("spec %d manifests differ from the local run:\nfleet %s\nlocal %s", i, got, want[i])
				}
			}
			if st := coord.FleetStats(); st.ShardsDispatched == 0 {
				t.Error("fleet run dispatched no shards: the matrix compared local against local")
			}
		})
	}
}
