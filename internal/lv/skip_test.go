package lv

import (
	"math"
	"testing"

	"lvmajority/internal/rng"
)

// skipRates are the rate sets the skip-engine invariant tests cover: the
// Table-1 rates, β ≠ δ in both directions with non-integral α, and θ = 0.
var skipRates = []struct {
	name               string
	beta, delta, alpha float64
}{
	{"table1", 1, 1, 1},
	{"beta>delta", 2, 1, 0.5},
	{"beta<delta", 0.3, 3, 5},
	{"theta=0", 0, 0, 1},
}

// TestSkipWindowBoundsHazard checks the two invariants the skip engine's
// exactness rests on, exhaustively over every window start with both
// counts in (skipEndgame, 100], for both competitions and every skipRates
// set: h̄ ≥ h at every state the window can reach before its last step,
// and no state after the window's last step has an extinct species. Small
// budgets, which shorten the window, are covered on the same states.
func TestSkipWindowBoundsHazard(t *testing.T) {
	const top = 100
	checked := 0
	for _, r := range skipRates {
		theta, alpha := r.beta+r.delta, 2*r.alpha
		for _, sd := range []bool{true, false} {
			for x0 := skipEndgame + 1; x0 <= top; x0++ {
				for x1 := skipEndgame + 1; x1 <= top; x1++ {
					for _, budget := range []int{math.MaxInt, 5, 1} {
						window, hbar := skipWindow(theta, alpha, sd, x0, x1, budget)
						if window < 1 || window > budget || window >= min(x0, x1) {
							t.Fatalf("sd=%v (%d,%d) budget %d: window %d", sd, x0, x1, budget, window)
						}
						if hbar < 0 || hbar > 1 {
							t.Fatalf("sd=%v (%d,%d): h̄ = %v outside [0, 1]", sd, x0, x1, hbar)
						}
						// Reachable states after j competitive steps:
						// SD only k = j; NSD any k victims of species 1.
						for j := 0; j <= window; j++ {
							kLo := 0
							if sd {
								kLo = j
							}
							for k := kLo; k <= j; k++ {
								y0, y1 := x0-(j-k), x1-k
								if sd {
									y0 = x0 - j
								}
								if y0 <= 0 || y1 <= 0 {
									t.Fatalf("%s sd=%v: window of %d from (%d,%d) reaches (%d,%d)", r.name, sd, window, x0, x1, y0, y1)
								}
								if j == window {
									continue // the window ends; no step is taken here
								}
								if h := hazard(theta, alpha, y0, y1); h > hbar {
									t.Fatalf("%s sd=%v: window from (%d,%d), L=%d: h(%d,%d) = %v > h̄ = %v",
										r.name, sd, x0, x1, window, y0, y1, h, hbar)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if checked < 1_000_000 {
		t.Fatalf("only %d states checked", checked)
	}
}

// TestCompeteCounts checks the bulk competitive step: SD removes g of each
// species; NSD removes g in total, split by a Binomial(g, ½) count whose
// mean and variance match over many draws, for g on both sides of the
// 64-bit word boundary.
func TestCompeteCounts(t *testing.T) {
	src := rng.New(3)
	if a, b := compete(src, true, 500, 400, 130); a != 370 || b != 270 {
		t.Fatalf("SD compete: got (%d,%d), want (370,270)", a, b)
	}
	for _, g := range []int{0, 1, 63, 64, 65, 200} {
		const draws = 20000
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			a, b := compete(src, false, 1000, 1000, g)
			if (1000-a)+(1000-b) != g || a > 1000 || b > 1000 {
				t.Fatalf("NSD compete g=%d: got (%d,%d)", g, a, b)
			}
			k := float64(1000 - b)
			sum += k
			sumSq += k * k
		}
		mean := sum / draws
		variance := sumSq/draws - mean*mean
		wantMean, wantVar := float64(g)/2, float64(g)/4
		if se := math.Sqrt(wantVar / draws); math.Abs(mean-wantMean) > 5*se+1e-12 {
			t.Errorf("g=%d: mean victims %v, want %v", g, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.05*wantVar+1e-12 {
			t.Errorf("g=%d: victim variance %v, want %v", g, variance, wantVar)
		}
	}
}

// TestCheckSkip pins the skip engine's preconditions.
func TestCheckSkip(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		ok   bool
	}{
		{"sd", Neutral(1, 1, 1, 0, SelfDestructive), true},
		{"nsd", Neutral(2, 0.5, 3, 0, NonSelfDestructive), true},
		{"theta=0", Neutral(0, 0, 1, 0, SelfDestructive), true},
		{"gamma", Neutral(1, 1, 1, 0.5, SelfDestructive), false},
		{"gamma1", Params{Beta: 1, Delta: 1, Alpha: [2]float64{1, 1}, Gamma: [2]float64{0, 1}, Competition: NonSelfDestructive}, false},
		{"asym-alpha", Params{Beta: 1, Delta: 1, Alpha: [2]float64{1, 2}, Competition: SelfDestructive}, false},
		{"alpha=0", Neutral(1, 1, 0, 0, SelfDestructive), false},
		{"invalid", Params{Beta: -1, Alpha: [2]float64{1, 1}, Competition: SelfDestructive}, false},
	} {
		if err := CheckSkip(tc.p); (err == nil) != tc.ok {
			t.Errorf("%s: CheckSkip = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if _, err := RunSkip(tc.p, State{X0: 30, X1: 20}, rng.New(1), 0); (err == nil) != tc.ok {
			t.Errorf("%s: RunSkip error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if _, err := RunSkip(Neutral(1, 1, 1, 0, SelfDestructive), State{X0: -1, X1: 3}, rng.New(1), 0); err == nil {
		t.Error("RunSkip accepted a negative state")
	}
	if _, err := RunSkip(Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 3, X1: 3}, nil, 0); err == nil {
		t.Error("RunSkip accepted a nil source")
	}
}

// TestRunSkipOutcome checks the reported fields: consensus runs end with a
// species extinct and a consistent winner, runs started at consensus take
// no step, the budget is never exceeded, and θ = 0 chains (all
// competitive) take exactly the deterministic SD path.
func TestRunSkipOutcome(t *testing.T) {
	src := rng.New(11)
	for _, comp := range []Competition{SelfDestructive, NonSelfDestructive} {
		p := Neutral(1, 1, 1, 0, comp)
		for i := 0; i < 200; i++ {
			out, err := RunSkip(p, State{X0: 120, X1: 90}, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Consensus || !out.Final.Consensus() || out.Winner != out.Final.Winner() {
				t.Fatalf("%v: inconsistent outcome %+v", comp, out)
			}
			if out.MajorityWon != (out.Winner == 0) {
				t.Fatalf("%v: MajorityWon %v with winner %d", comp, out.MajorityWon, out.Winner)
			}
		}
		for _, budget := range []int{1, 7, 40, 100} {
			out, err := RunSkip(p, State{X0: 300, X1: 280}, src, budget)
			if err != nil {
				t.Fatal(err)
			}
			if out.Consensus || out.Steps != budget || out.Winner != -1 {
				t.Fatalf("%v budget %d: %+v, want a cut run of exactly %d steps", comp, budget, out, budget)
			}
		}
		if out, _ := RunSkip(p, State{X0: 5, X1: 0}, src, 0); out.Steps != 0 || !out.MajorityWon {
			t.Fatalf("%v: run from consensus: %+v", comp, out)
		}
		// The minority species leads: the majority is species 1.
		if out, _ := RunSkip(p, State{X0: 20, X1: 400}, src, 0); out.Consensus && out.MajorityWon != (out.Winner == 1) {
			t.Fatalf("%v: majority orientation: %+v", comp, out)
		}
	}
	out, err := RunSkip(Neutral(0, 0, 1, 0, SelfDestructive), State{X0: 500, X1: 321}, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Outcome{Consensus: true, Winner: 0, MajorityWon: true, Steps: 321, Final: State{X0: 179}}); out != want {
		t.Fatalf("theta = 0 SD: got %+v, want %+v", out, want)
	}
}

// TestRunSkipAllocationFree pins the skip engine's zero-allocation
// guarantee for whole consensus runs under both competitions.
func TestRunSkipAllocationFree(t *testing.T) {
	src := rng.New(7)
	for _, comp := range []Competition{SelfDestructive, NonSelfDestructive} {
		p := Neutral(1, 1, 1, 0, comp)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := RunSkip(p, State{X0: 400, X1: 300}, src, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: RunSkip allocated %v times per call, want 0", comp, allocs)
		}
	}
}

// TestSkipMatchesEventKernel is a two-sample test of the skip engine
// against the event kernel at the BenchmarkLVKernel states, n = 4096 at
// the T1 sweeps' Ψ: the probability that the majority wins (two-proportion
// z) and the mean consensus time (Welch z) must agree.
func TestSkipMatchesEventKernel(t *testing.T) {
	trials := 2500
	if !testing.Short() {
		trials = 20000
	}
	for _, tc := range []struct {
		name    string
		params  Params
		initial State
	}{
		{"SD", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 2056, X1: 2040}},
		{"NSD", Neutral(1, 1, 1, 0, NonSelfDestructive), State{X0: 2162, X1: 1934}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wins [2]int
			var sum, sumSq [2]float64
			event, skip := rng.New(1), rng.New(2)
			for i := 0; i < trials; i++ {
				outs := [2]Outcome{}
				var err error
				if outs[0], err = Run(tc.params, tc.initial, event, RunOptions{}); err != nil {
					t.Fatal(err)
				}
				if outs[1], err = RunSkip(tc.params, tc.initial, skip, 0); err != nil {
					t.Fatal(err)
				}
				for e, out := range outs {
					if !out.Consensus {
						t.Fatalf("engine %d: no consensus", e)
					}
					if out.MajorityWon {
						wins[e]++
					}
					s := float64(out.Steps)
					sum[e] += s
					sumSq[e] += s * s
				}
			}
			n := float64(trials)
			p := float64(wins[0]+wins[1]) / (2 * n)
			if se := math.Sqrt(p * (1 - p) * 2 / n); se > 0 {
				if z := (float64(wins[1]-wins[0]) / n) / se; math.Abs(z) > 4 {
					t.Errorf("P(majority wins): event %d/%d, skip %d/%d (z = %.2f)", wins[0], trials, wins[1], trials, z)
				}
			}
			var mean, varMean [2]float64
			for e := range mean {
				mean[e] = sum[e] / n
				varMean[e] = (sumSq[e]/n - mean[e]*mean[e]) / (n - 1)
			}
			if z := (mean[1] - mean[0]) / math.Sqrt(varMean[0]+varMean[1]); math.Abs(z) > 4 {
				t.Errorf("mean steps: event %.2f, skip %.2f (z = %.2f)", mean[0], mean[1], z)
			}
		})
	}
}
