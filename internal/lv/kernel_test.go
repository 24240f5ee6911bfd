package lv

import (
	"math"
	"testing"

	"lvmajority/internal/rng"
)

// referenceRun replays the pre-fusion Run implementation: a NewChain +
// Step loop with the closure-based accounting. The fused kernel must match
// it field for field on the same random stream.
func referenceRun(t *testing.T, params Params, initial State, src *rng.Source, opts RunOptions) Outcome {
	t.Helper()
	chain, err := NewChain(params, initial, src)
	if err != nil {
		t.Fatal(err)
	}
	chain.SetTrackTime(opts.TrackTime)
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	out := Outcome{Winner: -1, MaxPopulation: initial.Total()}
	majority := 0
	if initial.X1 > initial.X0 {
		majority = 1
	}
	signedGap := func(s State) int {
		if majority == 0 {
			return s.X0 - s.X1
		}
		return s.X1 - s.X0
	}

	prev := chain.State()
	for !chain.State().Consensus() {
		if chain.Steps() >= maxSteps {
			out.Steps = chain.Steps()
			out.Final = chain.State()
			out.Time = chain.Time()
			return out
		}
		kind, ok := chain.Step()
		if !ok {
			out.Steps = chain.Steps()
			out.Final = chain.State()
			out.Time = chain.Time()
			return out
		}
		cur := chain.State()

		fStep := signedGap(prev) - signedGap(cur)
		if kind.IsIndividual() {
			out.Individual++
			out.FInd += fStep
			if prev.Min() > 0 && cur.AbsGap() == prev.AbsGap()-1 {
				out.BadNonCompetitive++
			}
		} else {
			out.Competitive++
			out.FComp += fStep
		}
		if cur.Total() > out.MaxPopulation {
			out.MaxPopulation = cur.Total()
		}
		if !cur.Consensus() && cur.X0 == cur.X1 {
			out.GapHitZero = true
		}
		prev = cur
	}

	out.Consensus = true
	out.Steps = chain.Steps()
	out.Final = chain.State()
	out.Time = chain.Time()
	out.Winner = out.Final.Winner()
	out.MajorityWon = out.Winner == majority
	return out
}

// TestFusedKernelByteIdenticalToStepLoop runs the fused Run kernel and the
// Step-loop reference from identical streams across every competition
// regime, time tracking mode, and a budget-bound chain, and demands
// Outcome equality in every field — the fused kernel must be invisible at
// the bit level.
func TestFusedKernelByteIdenticalToStepLoop(t *testing.T) {
	cases := []struct {
		name    string
		params  Params
		initial State
		opts    RunOptions
	}{
		{"SD", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 40, X1: 30}, RunOptions{}},
		{"NSD", Neutral(1, 1, 1, 0, NonSelfDestructive), State{X0: 40, X1: 30}, RunOptions{}},
		{"SD-intra", Neutral(1, 1, 0, 1, SelfDestructive), State{X0: 24, X1: 18}, RunOptions{}},
		{"NSD-both", Neutral(1, 1, 0.5, 0.5, NonSelfDestructive), State{X0: 30, X1: 20}, RunOptions{}},
		{"tracked-time", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 25, X1: 15}, RunOptions{TrackTime: true}},
		{"asymmetric", Params{Beta: 1, Delta: 0.5, Alpha: [2]float64{1, 0.8}, Gamma: [2]float64{0.2, 0.1}, Competition: NonSelfDestructive}, State{X0: 20, X1: 16}, RunOptions{}},
		{"budget-bound", Neutral(1, 1, 0, 0, SelfDestructive), State{X0: 10, X1: 10}, RunOptions{MaxSteps: 500}},
		{"tie-start", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 20, X1: 20}, RunOptions{}},
		{"minority-is-x0", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 15, X1: 25}, RunOptions{}},
		{"already-consensus", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 10, X1: 0}, RunOptions{}},
		// Integral rates other than 1 run the integer pick.
		{"int-rates-SD", Params{Beta: 2, Delta: 1, Alpha: [2]float64{3, 1}, Gamma: [2]float64{2, 0}, Competition: SelfDestructive}, State{X0: 30, X1: 24}, RunOptions{}},
		{"int-rates-NSD", Params{Beta: 2, Delta: 1, Alpha: [2]float64{3, 1}, Gamma: [2]float64{2, 0}, Competition: NonSelfDestructive}, State{X0: 30, X1: 24}, RunOptions{TrackTime: true}},
		// A growing chain that starts on the integer pick and leaves its
		// count bound mid-run, finishing on the float scan.
		{"int-to-float", Neutral(2, 1, 0, 0, SelfDestructive), State{X0: maxIntCount - 3, X1: maxIntCount - 2}, RunOptions{MaxSteps: 300}},
		// The largest rate the integer pick takes, and one past it.
		{"rate-2^10", Params{Beta: 1, Delta: 1, Alpha: [2]float64{maxIntRate, 1}, Gamma: [2]float64{1, maxIntRate}, Competition: NonSelfDestructive}, State{X0: 40, X1: 30}, RunOptions{}},
		{"rate-2^10+1", Params{Beta: 1, Delta: 1, Alpha: [2]float64{maxIntRate + 1, 1}, Gamma: [2]float64{1, maxIntRate}, Competition: NonSelfDestructive}, State{X0: 40, X1: 30}, RunOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 25; seed++ {
				got, err := Run(tc.params, tc.initial, rng.New(seed), tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceRun(t, tc.params, tc.initial, rng.New(seed), tc.opts)
				if got != want {
					t.Fatalf("seed %d: fused kernel diverged:\n got %+v\nwant %+v", seed, got, want)
				}
				if tc.name == "int-to-float" && max(got.Final.X0, got.Final.X1) < maxIntCount {
					t.Fatalf("seed %d: chain ended at %+v without leaving the integer pick", seed, got.Final)
				}
			}
		})
	}
}

// TestIntegralRates pins the integer pick's rate precondition: integers up
// to maxIntRate, zero included.
func TestIntegralRates(t *testing.T) {
	for _, tc := range []struct {
		params Params
		want   bool
	}{
		{Neutral(1, 1, 1, 0, SelfDestructive), true},
		{Neutral(0, 0, 0, 0, SelfDestructive), true},
		{Neutral(maxIntRate, 1, 1, 1, SelfDestructive), true},
		{Neutral(maxIntRate+1, 1, 1, 1, SelfDestructive), false},
		{Neutral(1, 1, 0.5, 0.5, NonSelfDestructive), false},
		{Params{Beta: 1, Delta: 1, Gamma: [2]float64{0, 1.25}, Competition: SelfDestructive}, false},
	} {
		if _, got := integralRates(tc.params); got != tc.want {
			t.Errorf("integralRates(%v) = %v, want %v", tc.params, got, tc.want)
		}
	}
}

// TestIntPickMatchesScan drives the integer pick and the float scan with
// the same point u and demands the same channel: at every cumulative
// boundary c_k, just below it, at 0, at u == total (the rounding case, which
// must give the last positive channel) and at random points, over random
// states up to the count bound and random integral rates up to the rate
// bound, with zero-weight channels throughout.
func TestIntPickMatchesScan(t *testing.T) {
	src := rng.New(11)
	rateChoices := []float64{0, 1, 2, 3, 7, maxIntRate}
	rate := func() float64 { return rateChoices[src.Intn(len(rateChoices))] }
	count := func() int {
		switch src.Intn(4) {
		case 0:
			return src.Intn(3)
		case 1:
			return maxIntCount - 1 - src.Intn(3)
		default:
			return src.Intn(maxIntCount)
		}
	}
	checked := 0
	for i := 0; i < 20000; i++ {
		p := Params{
			Beta: rate(), Delta: rate(),
			Alpha:       [2]float64{rate(), rate()},
			Gamma:       [2]float64{rate(), rate()},
			Competition: SelfDestructive,
		}
		s := State{X0: count(), X1: count()}
		w, ok := integralRates(p)
		if !ok {
			t.Fatalf("integralRates rejected %v", p)
		}
		x0, x1 := int64(s.X0), int64(s.X1)
		c3, c5, total := w.cumWeights(x0, x1)
		props, ftotal := propensities(p, s)
		if ftotal != float64(total) {
			t.Fatalf("%v %+v: float total %v, integer total %d", p, s, ftotal, total)
		}
		if total == 0 {
			continue
		}
		points := []float64{0, ftotal, src.Float64() * ftotal}
		acc := 0.0
		for _, v := range props {
			acc += v
			points = append(points, acc, math.Nextafter(acc, 0))
		}
		for _, u := range points {
			want := scanPick(&props, u)
			if got := w.pick(intPoint(u, total), c3, c5, x0, x1); got != want {
				t.Fatalf("%v %+v u=%v: integer pick %v, float scan %v (props %v)", p, s, u, got, want, props)
			}
			if props[want] == 0 {
				t.Fatalf("%v %+v u=%v: picked zero-weight channel %v", p, s, u, want)
			}
			if u == ftotal {
				for k := want + 1; k < numEvents; k++ {
					if props[k] != 0 {
						t.Fatalf("%v %+v u=total: picked %v, not the last positive channel %v", p, s, want, k)
					}
				}
			}
			checked++
		}
	}
	if checked < 100000 {
		t.Fatalf("only %d points checked", checked)
	}
}

// TestRunToConsensusReuse checks the exported reuse path: Reset +
// RunToConsensus on one chain must reproduce fresh Run calls exactly.
func TestRunToConsensusReuse(t *testing.T) {
	params := Neutral(1, 1, 1, 0, NonSelfDestructive)
	initial := State{X0: 30, X1: 22}
	chain, err := NewChain(params, initial, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		if err := chain.Reset(initial, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
		got := chain.RunToConsensus(0)
		want, err := Run(params, initial, rng.New(seed), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: reused chain diverged:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestRunAllocationFree verifies the fused kernel's headline property: a
// whole consensus run performs zero heap allocations.
func TestRunAllocationFree(t *testing.T) {
	params := Neutral(1, 1, 1, 0, SelfDestructive)
	src := rng.New(7)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Run(params, State{X0: 40, X1: 30}, src, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("lv.Run allocated %v times per call, want 0", allocs)
	}
}
