package lv

import (
	"testing"

	"lvmajority/internal/rng"
)

// BenchmarkRunSD measures a full self-destructive consensus run at n = 1000
// through Run, the fused event kernel behind every LV experiment.
func BenchmarkRunSD(b *testing.B) {
	params := Neutral(1, 1, 1, 0, SelfDestructive)
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(params, State{X0: 600, X1: 400}, src, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Consensus {
			b.Fatal("no consensus")
		}
	}
}

// BenchmarkRunNSD is the non-self-destructive counterpart.
func BenchmarkRunNSD(b *testing.B) {
	params := Neutral(1, 1, 1, 0, NonSelfDestructive)
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(params, State{X0: 600, X1: 400}, src, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Consensus {
			b.Fatal("no consensus")
		}
	}
}

// BenchmarkLVKernel measures the fused event kernel on full consensus runs
// at n = 4096, started at the gap of the T1 sweeps' Ψ(4096), reporting ns
// per event. SD and NSD have integral rates and run the integer pick; frac
// halves every SD rate, which leaves the jump chain and even its event
// sequence unchanged but makes the rates non-integral, so it runs the same
// trajectories through the float scan. The allocs/op column is the
// kernel's zero-allocation guarantee: entire replicated runs produce no
// garbage.
func BenchmarkLVKernel(b *testing.B) {
	cases := []struct {
		name    string
		params  Params
		initial State
	}{
		{"SD", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 2056, X1: 2040}},
		{"NSD", Neutral(1, 1, 1, 0, NonSelfDestructive), State{X0: 2162, X1: 1934}},
		{"frac", Neutral(0.5, 0.5, 0.5, 0, SelfDestructive), State{X0: 2056, X1: 2040}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := rng.New(1)
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				out, err := Run(tc.params, tc.initial, src, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !out.Consensus {
					b.Fatal("no consensus")
				}
				events += int64(out.Steps)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// BenchmarkStep measures single-step cost without the Run bookkeeping.
func BenchmarkStep(b *testing.B) {
	params := Neutral(1, 1, 1, 0, SelfDestructive)
	fresh := func(seed uint64) *Chain {
		chain, err := NewChain(params, State{X0: 1 << 20, X1: 1 << 20}, rng.New(seed))
		if err != nil {
			b.Fatal(err)
		}
		return chain
	}
	chain := fresh(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := chain.Step(); !ok {
			// Long benchmark runs exhaust the chain (double
			// extinction); restart outside the timer.
			b.StopTimer()
			chain = fresh(uint64(i))
			b.StartTimer()
		}
	}
}
