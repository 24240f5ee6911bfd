package lv

import (
	"fmt"
	"math/bits"

	"lvmajority/internal/rng"
)

// The skip engine: a winner-only kernel for chains whose competitive step
// does not depend on the state. With γ₀ = γ₁ = 0 and α₀ = α₁ = α′/2 > 0 a
// competitive event is (−1, −1) under SD and a fair-coin victim under NSD;
// only the individual-event hazard
//
//	h(x) = θs / (θs + α′x₀x₁),  θ = β + δ, s = x₀ + x₁,
//
// depends on the path. At n = 4096 near Ψ it is about 10⁻³, so nearly
// every event of the event kernel is a competitive step that carries no
// information. The skip engine jumps over runs of them by thinning:
//
//   - Window. Outside the endgame (minority ≤ skipEndgame) it opens a window
//     of L = ⌊x_min/2⌋ steps, which cannot absorb since L < x_min, and
//     bounds h over every state the window can reach by h̄ (skipWindow).
//   - Candidates. The steps before the next candidate are Geometric(h̄)
//     failures, capped at the window's end; they are all competitive and
//     are applied in one go (compete).
//   - Accept or reject. A candidate step is an individual event with
//     probability h(x)/h̄, which closes the window; otherwise it is one
//     more competitive event.
//
// Each step is thus individual with probability h̄ · h(x)/h̄ = h(x), so the
// engine samples exactly the jump chain's law of the winner and of the
// consensus time. It draws a different random stream from the event
// kernel, so its estimates are new samples of the same law.

// skipEndgame is the minority count at or below which the skip engine steps
// event by event: its windows there would hold at most 8 steps.
const skipEndgame = 16

// CheckSkip reports whether the skip engine applies to p: valid rates, no
// intraspecific competition (γ₀ = γ₁ = 0), and equal positive interspecific
// rates (α₀ = α₁ > 0). Any β, δ ≥ 0 and either competition model qualify.
func CheckSkip(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Gamma[0] != 0 || p.Gamma[1] != 0 {
		return fmt.Errorf("lv: skip engine needs gamma0 = gamma1 = 0, got %g, %g", p.Gamma[0], p.Gamma[1])
	}
	if p.Alpha[0] != p.Alpha[1] || p.Alpha[0] <= 0 {
		return fmt.Errorf("lv: skip engine needs alpha0 = alpha1 > 0, got %g, %g", p.Alpha[0], p.Alpha[1])
	}
	return nil
}

// RunSkip runs the skip engine from initial until consensus or until
// maxSteps steps (maxSteps <= 0 means DefaultMaxSteps), counting skipped
// competitive steps. Only Consensus, Winner, MajorityWon, Steps and Final
// are set; the event counters, MaxPopulation and Time stay zero, because
// the engine never visits the skipped events. The parameters must pass
// CheckSkip. RunSkip performs no heap allocation.
func RunSkip(params Params, initial State, src *rng.Source, maxSteps int) (Outcome, error) {
	if err := CheckSkip(params); err != nil {
		return Outcome{}, err
	}
	if err := initial.Validate(); err != nil {
		return Outcome{}, err
	}
	if src == nil {
		return Outcome{}, fmt.Errorf("lv: nil random source")
	}
	return skipToConsensus(params, initial, src, maxSteps), nil
}

// skipToConsensus is the skip engine behind RunSkip.
//
//lint:hotpath
func skipToConsensus(p Params, initial State, src *rng.Source, maxSteps int) Outcome {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	majority := 0
	if initial.X1 > initial.X0 {
		majority = 1
	}
	var (
		beta, dlt = p.Beta, p.Delta
		theta     = beta + dlt
		alpha     = p.Alpha[0] + p.Alpha[1]
		sd        = p.Competition == SelfDestructive
		x0, x1    = initial.X0, initial.X1
		steps     = 0
	)
	for x0 != 0 && x1 != 0 && steps < maxSteps {
		if min(x0, x1) <= skipEndgame {
			// One event of the jump chain, picked from the same
			// weights: individual below θs, Inter0 (a 1 dies)
			// below θs + α₀x₀x₁, else Inter1.
			ind := theta * float64(x0+x1)
			comp := alpha * float64(x0) * float64(x1)
			u := src.Float64() * (ind + comp)
			switch {
			case u < ind:
				x0, x1 = individual(u, beta, dlt, x0, x1)
			case sd:
				x0, x1 = x0-1, x1-1
			case u-ind < comp/2:
				x1--
			default:
				x0--
			}
			steps++
			continue
		}

		window, hbar := skipWindow(theta, alpha, sd, x0, x1, maxSteps-steps)
		j := 0
		for j < window {
			g := window - j
			if hbar > 0 {
				g = src.GeometricCapped(hbar, g)
			}
			x0, x1 = compete(src, sd, x0, x1, g)
			if j += g; j == window {
				break
			}
			// A candidate step: u is uniform on [0, h̄·φ), with φ
			// the total propensity, and h(x)·φ = θs, so u < θs has
			// probability h(x)/h̄ and, given that, is uniform on
			// [0, θs) for the channel pick.
			ind := theta * float64(x0+x1)
			u := src.Float64() * hbar * (ind + alpha*float64(x0)*float64(x1))
			j++
			if u < ind {
				x0, x1 = individual(u, beta, dlt, x0, x1)
				break
			}
			x0, x1 = compete(src, sd, x0, x1, 1)
		}
		steps += j
	}

	out := Outcome{Winner: -1, Steps: steps, Final: State{X0: x0, X1: x1}}
	if x0 == 0 || x1 == 0 {
		out.Consensus = true
		out.Winner = out.Final.Winner()
		out.MajorityWon = out.Winner == majority
	}
	return out
}

// skipWindow returns the length L of the skip engine's next window from
// state (x0, x1), both above skipEndgame, and the hazard bound h̄ ≥ h(x) at
// every state the window can reach before its last step. L = ⌊x_min/2⌋,
// capped at budget ≥ 1, so every reachable state keeps both counts
// positive. The reachable states are those after j < L competitive steps:
//
//   - SD: (x₀ − j, x₁ − j). h = θ/(θ + α′/(1/x₀ + 1/x₁)) grows as both
//     counts fall, so h̄ = h(x₀ − L + 1, x₁ − L + 1).
//   - NSD: (x₀ − k, x₁ − j + k) for 0 ≤ k ≤ j. The product x₀x₁ is concave
//     in k, so it is at least (x_min − j)·x_max ≥ (x_min − L + 1)·x_max,
//     and s never exceeds its value s₀ at the window's start, so
//     h̄ = θs₀/(θs₀ + α′(x_min − L + 1)·x_max).
//
// With θ = 0 it returns h̄ = 0: the whole window is competitive.
func skipWindow(theta, alpha float64, sd bool, x0, x1, budget int) (window int, hbar float64) {
	lo, hi := min(x0, x1), max(x0, x1)
	window = min(lo/2, budget)
	if sd {
		return window, hazard(theta, alpha, x0-window+1, x1-window+1)
	}
	ind := theta * float64(x0+x1)
	return window, ind / (ind + alpha*float64(lo-window+1)*float64(hi))
}

// hazard is h(x₀, x₁) = θs/(θs + α′x₀x₁), the probability that the next
// event of the jump chain is individual (a birth or a death).
func hazard(theta, alpha float64, x0, x1 int) float64 {
	ind := theta * float64(x0+x1)
	return ind / (ind + alpha*float64(x0)*float64(x1))
}

// individual fires the birth or death channel that u, a uniform point of
// [0, θ(x₀ + x₁)), selects from the weights βx₀, βx₁, δx₀, δx₁ (EventKind
// order).
func individual(u, beta, delta float64, x0, x1 int) (int, int) {
	b0 := beta * float64(x0)
	b1 := b0 + beta*float64(x1)
	switch {
	case u < b0:
		return x0 + 1, x1
	case u < b1:
		return x0, x1 + 1
	case u < b1+delta*float64(x0):
		return x0 - 1, x1
	default:
		return x0, x1 - 1
	}
}

// compete applies g competitive steps. SD removes one of each species per
// step. NSD removes a fair-coin victim per step: the number of Inter0
// steps (a 1 dies) is Binomial(g, ½), counted exactly as the set bits of g
// random bits rather than by rng.Binomial's normal approximation.
func compete(src *rng.Source, sd bool, x0, x1, g int) (int, int) {
	if sd {
		return x0 - g, x1 - g
	}
	k := 0
	n := g
	for ; n >= 64; n -= 64 {
		k += bits.OnesCount64(src.Uint64())
	}
	if n > 0 {
		k += bits.OnesCount64(src.Uint64() >> (64 - n))
	}
	return x0 - (g - k), x1 - k
}
