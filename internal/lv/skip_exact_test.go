package lv_test

import (
	"fmt"
	"math"
	"testing"

	"lvmajority/internal/exact"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// skipOracleParams are the chains the skip engine is certified on against
// the exact solver: SD and NSD with γ = 0, at β = δ = 1 and at β ≠ δ.
func skipOracleParams() []lv.Params {
	return []lv.Params{
		lv.Neutral(1, 1, 1, 0, lv.SelfDestructive),
		lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive),
		lv.Neutral(2, 0.5, 0.75, 0, lv.SelfDestructive),
		lv.Neutral(2, 0.5, 0.75, 0, lv.NonSelfDestructive),
	}
}

// TestSkipMatchesExactOracle certifies the skip engine's law against
// exact.SolveWithSteps: at every start state (a, b) with a + b ≤ 96 whose
// minority is above the endgame (so the engine opens a window), the
// frequency of species 0 winning (ties lose, the solver's tie value 0) and
// the mean consensus time must match ρ(a, b) and E[T(a, b)].
//
// Per state, ρ is tested with a binomial z where the sample holds enough
// expected failures for a normal reading, and E[T] with the sample
// standard error; both are Bonferroni-bounded over the ~2000 states. Over
// all states of a chain, the summed win and step deviations are tested
// again, which catches a bias too small to show at any one state.
func TestSkipMatchesExactOracle(t *testing.T) {
	const (
		maxN     = 96
		minCount = 17 // the smallest minority that opens a window
		perState = 5.5
		pooled   = 4.0
	)
	trials := 150
	if !testing.Short() {
		trials = 600
	}
	for _, params := range skipOracleParams() {
		t.Run(params.String(), func(t *testing.T) {
			sol, err := exact.SolveWithSteps(params, exact.Options{Max: 128})
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(20240506)
			n := float64(trials)
			var winDev, winVar, stepDev, stepVar float64
			states := 0
			for a := minCount; a <= maxN-minCount; a++ {
				for b := minCount; a+b <= maxN; b++ {
					rho, err := sol.Rho(a, b)
					if err != nil {
						t.Fatal(err)
					}
					steps, err := sol.Steps(a, b)
					if err != nil {
						t.Fatal(err)
					}
					wins := 0
					var sum, sumSq float64
					for i := 0; i < trials; i++ {
						out, err := lv.RunSkip(params, lv.State{X0: a, X1: b}, src, 0)
						if err != nil {
							t.Fatal(err)
						}
						if !out.Consensus {
							t.Fatalf("(%d,%d): no consensus", a, b)
						}
						if out.Winner == 0 {
							wins++
						}
						s := float64(out.Steps)
						sum += s
						sumSq += s * s
					}
					states++
					v := n * rho * (1 - rho)
					winDev += float64(wins) - n*rho
					winVar += v
					if v >= 10 {
						if z := (float64(wins) - n*rho) / math.Sqrt(v); math.Abs(z) > perState {
							t.Errorf("(%d,%d): %d/%d wins, exact ρ = %.6f (z = %.2f)", a, b, wins, trials, rho, z)
						}
					}
					mean := sum / n
					varMean := (sumSq/n - mean*mean) / (n - 1)
					stepDev += mean - steps
					stepVar += varMean
					if z := (mean - steps) / math.Sqrt(varMean); math.Abs(z) > perState {
						t.Errorf("(%d,%d): mean steps %.3f, exact E[T] = %.3f (z = %.2f)", a, b, mean, steps, z)
					}
				}
			}
			if states < 1900 {
				t.Fatalf("only %d start states", states)
			}
			if z := winDev / math.Sqrt(winVar); math.Abs(z) > pooled {
				t.Errorf("wins over %d states deviate from Σρ by %.1f (z = %.2f)", states, winDev, z)
			}
			if z := stepDev / math.Sqrt(stepVar); math.Abs(z) > pooled {
				t.Errorf("mean steps over %d states deviate from ΣE[T] by %.2f (z = %.2f)", states, stepDev, z)
			}
		})
	}
}

// boundedLaw returns, for a chain started at initial, the exact
// probabilities that consensus is reached within budget steps, and that it
// is reached with species 0 the sole survivor. It pushes the jump chain's
// distribution forward step by step over a grid large enough that no
// birth can leave it.
func boundedLaw(params lv.Params, initial lv.State, budget int) (consensus, win0 float64) {
	size := max(initial.X0, initial.X1) + budget + 1
	cur := make([]float64, size*size)
	next := make([]float64, size*size)
	cur[initial.X0*size+initial.X1] = 1
	for step := 0; step < budget; step++ {
		clear(next)
		for x0 := 1; x0 < size; x0++ {
			for x1 := 1; x1 < size; x1++ {
				mass := cur[x0*size+x1]
				if mass == 0 {
					continue
				}
				s := lv.State{X0: x0, X1: x1}
				props, total := lv.PropensitiesFor(params, s)
				for k, v := range props {
					if v == 0 {
						continue
					}
					to := lv.ApplyEvent(params, s, lv.EventKind(k))
					next[to.X0*size+to.X1] += mass * v / total
				}
			}
		}
		// Absorbed mass stays where it is.
		for x := 0; x < size; x++ {
			next[x*size] += cur[x*size]
			if x > 0 {
				next[x] += cur[x]
			}
		}
		cur, next = next, cur
	}
	for x := 0; x < size; x++ {
		consensus += cur[x*size]
		if x > 0 {
			consensus += cur[x]
			win0 += cur[x*size]
		}
	}
	return consensus, win0
}

// TestSkipBudgetMatchesExactLaw certifies the skip engine under a
// MaxSteps budget: windows are cut at the remaining budget, and the
// probabilities of reaching consensus, and of species 0 winning, within
// the budget must match the exact bounded-horizon law (boundedLaw). The
// budgets range from below the minority count, where no run can finish,
// through the bulk of the consensus-time distribution.
func TestSkipBudgetMatchesExactLaw(t *testing.T) {
	trials := 20000
	if !testing.Short() {
		trials = 100000
	}
	initial := lv.State{X0: 40, X1: 30}
	for _, params := range skipOracleParams() {
		for _, budget := range []int{20, 32, 45, 60, 90} {
			t.Run(fmt.Sprintf("%s/budget=%d", params, budget), func(t *testing.T) {
				wantCons, wantWin := boundedLaw(params, initial, budget)
				src := rng.New(uint64(budget))
				cons, win := 0, 0
				for i := 0; i < trials; i++ {
					out, err := lv.RunSkip(params, initial, src, budget)
					if err != nil {
						t.Fatal(err)
					}
					if out.Steps > budget {
						t.Fatalf("run took %d steps, budget %d", out.Steps, budget)
					}
					if out.Consensus {
						cons++
					} else if out.Steps != budget {
						t.Fatalf("cut run stopped at %d steps, budget %d", out.Steps, budget)
					}
					if out.Winner == 0 {
						win++
					}
				}
				for _, c := range []struct {
					what  string
					count int
					p     float64
				}{{"consensus", cons, wantCons}, {"species 0 wins", win, wantWin}} {
					v := float64(trials) * c.p * (1 - c.p)
					dev := float64(c.count) - float64(trials)*c.p
					if v == 0 {
						if dev != 0 {
							t.Errorf("%s: %d/%d, exact probability %v", c.what, c.count, trials, c.p)
						}
						continue
					}
					if z := dev / math.Sqrt(v); math.Abs(z) > 4.5 {
						t.Errorf("%s within %d steps: %d/%d, exact %.5f (z = %.2f)", c.what, budget, c.count, trials, c.p, z)
					}
				}
			})
		}
	}
}
