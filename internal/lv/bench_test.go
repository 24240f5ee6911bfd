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

// BenchmarkLVKernel measures the LV trial kernels on full consensus runs
// at n = 4096, started at the gap of the T1 sweeps' Ψ(4096), reporting ns
// per event (chain step) and ns per trial. SD and NSD have integral rates
// and run the event kernel's integer pick; frac halves every SD rate,
// which leaves the jump chain and even its event sequence unchanged but
// makes the rates non-integral, so it runs the same trajectories through
// the float scan. SD-skip and NSD-skip run the skip engine (RunSkip) on
// the SD and NSD chains; their ns/event divides by every chain step,
// skipped competitive steps included. The allocs/op column is the
// kernels' zero-allocation guarantee: entire replicated runs produce no
// garbage.
func BenchmarkLVKernel(b *testing.B) {
	sd, nsd := Neutral(1, 1, 1, 0, SelfDestructive), Neutral(1, 1, 1, 0, NonSelfDestructive)
	sdStart, nsdStart := State{X0: 2056, X1: 2040}, State{X0: 2162, X1: 1934}
	cases := []struct {
		name    string
		params  Params
		initial State
		skip    bool
	}{
		{"SD", sd, sdStart, false},
		{"NSD", nsd, nsdStart, false},
		{"frac", Neutral(0.5, 0.5, 0.5, 0, SelfDestructive), sdStart, false},
		{"SD-skip", sd, sdStart, true},
		{"NSD-skip", nsd, nsdStart, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := rng.New(1)
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				var out Outcome
				var err error
				if tc.skip {
					out, err = RunSkip(tc.params, tc.initial, src, 0)
				} else {
					out, err = Run(tc.params, tc.initial, src, RunOptions{})
				}
				if err != nil {
					b.Fatal(err)
				}
				if !out.Consensus {
					b.Fatal("no consensus")
				}
				events += int64(out.Steps)
			}
			elapsed := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(elapsed/float64(events), "ns/event")
			b.ReportMetric(elapsed/float64(b.N), "ns/trial")
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
