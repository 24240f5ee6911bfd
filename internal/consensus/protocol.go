// Package consensus provides the measurement machinery for majority
// consensus: a protocol abstraction, a parallel Monte-Carlo estimator of the
// majority-consensus probability ρ with Wilson confidence intervals, and the
// threshold search that computes the empirical majority consensus threshold
// Ψ(n) — the smallest initial gap Δ₀ for which ρ ≥ 1 − 1/n — which is the
// quantity tabulated in Table 1 of the paper.
package consensus

import (
	"fmt"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// Protocol is one majority-consensus protocol. A Protocol must be safe for
// concurrent Trial calls with distinct Source values.
type Protocol interface {
	// Name identifies the protocol in tables and logs.
	Name() string
	// Trial runs one experiment with total initial population n and
	// initial gap delta (same parity as n) and reports whether the
	// initial majority won.
	Trial(n, delta int, src *rng.Source) (bool, error)
}

// SplitInitial splits a population of size n into majority and minority
// counts (a, b) with a + b = n and a − b = delta. It returns an error when
// the parity of n and delta differ (no integer solution), when delta is
// negative or at least n, or when the minority would be empty (the paper
// assumes a > b > 0).
func SplitInitial(n, delta int) (a, b int, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("consensus: non-positive population %d", n)
	}
	if delta < 0 {
		return 0, 0, fmt.Errorf("consensus: negative gap %d", delta)
	}
	if (n-delta)%2 != 0 {
		return 0, 0, fmt.Errorf("consensus: n=%d and delta=%d have different parity", n, delta)
	}
	b = (n - delta) / 2
	a = n - b
	if b <= 0 {
		return 0, 0, fmt.Errorf("consensus: gap %d leaves no minority in population %d", delta, n)
	}
	return a, b, nil
}

// MatchParity returns the smallest gap >= delta with the same parity as n,
// so that SplitInitial succeeds. Threshold searches use it to stay on the
// feasible gap grid.
func MatchParity(n, delta int) int {
	if (n-delta)%2 != 0 {
		return delta + 1
	}
	return delta
}

// TieBreak selects how a trial that ends in double extinction (both species
// simultaneously dead, reachable under self-destructive competition) is
// scored.
type TieBreak int

const (
	// TieIsLoss scores double extinction as a failure, matching the
	// paper's strict definition: majority consensus requires the initial
	// majority to have positive count at the consensus time.
	TieIsLoss TieBreak = iota
	// TieIsCoinFlip scores double extinction as a fair coin flip. Under
	// this scoring the exact solution ρ(a,b) = a/(a+b) of Theorems 20
	// and 23 holds at every state including those that reach (1,1).
	TieIsCoinFlip
)

// The LV trial engines an LVProtocol selects. Both sample the same law of
// the trial's outcome from different random streams.
const (
	// LVEngineEvent is the fused event kernel (lv.Run), the default.
	LVEngineEvent = "event"
	// LVEngineSkip is the winner-only skip engine (lv.RunSkip), which
	// jumps over runs of competitive events; it needs rates that pass
	// lv.CheckSkip.
	LVEngineSkip = "skip"
)

// LVProtocol adapts a Lotka–Volterra chain to the Protocol interface.
type LVProtocol struct {
	// Params are the LV rate constants.
	Params lv.Params
	// Engine selects the trial kernel: "" or LVEngineEvent, or
	// LVEngineSkip.
	Engine string
	// Ties selects the double-extinction scoring (default TieIsLoss).
	Ties TieBreak
	// MaxSteps bounds each trial; 0 uses lv.DefaultMaxSteps. Trials that
	// exhaust the budget without consensus count as failures.
	MaxSteps int
	// Label overrides the generated name when non-empty.
	Label string
}

// Name implements Protocol.
func (p LVProtocol) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return p.Params.String()
}

// CacheKey identifies the protocol's dynamics for persistent probe caches
// (see internal/sweep): unlike Name, it ignores the cosmetic Label and
// encodes every field that changes trial outcomes, so redefining a labelled
// protocol invalidates its cached probes. The skip engine draws a
// different stream, so its keys end in |engine=skip; the event engine
// keeps the historical keys.
func (p LVProtocol) CacheKey() string {
	key := fmt.Sprintf("%s|ties=%d|maxsteps=%d", p.Params.String(), p.Ties, p.MaxSteps)
	if p.Engine == LVEngineSkip {
		key += "|engine=skip"
	}
	return key
}

// Trial implements Protocol.
func (p LVProtocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	a, b, err := SplitInitial(n, delta)
	if err != nil {
		return false, err
	}
	initial := lv.State{X0: a, X1: b}
	var out lv.Outcome
	switch p.Engine {
	case "", LVEngineEvent:
		out, err = lv.Run(p.Params, initial, src, lv.RunOptions{MaxSteps: p.MaxSteps})
	case LVEngineSkip:
		out, err = lv.RunSkip(p.Params, initial, src, p.MaxSteps)
	default:
		err = fmt.Errorf("consensus: unknown LV engine %q (want event or skip)", p.Engine)
	}
	if err != nil {
		return false, err
	}
	if !out.Consensus {
		return false, nil
	}
	if out.MajorityWon {
		return true, nil
	}
	if out.Winner == -1 && p.Ties == TieIsCoinFlip {
		return src.Bernoulli(0.5), nil
	}
	return false, nil
}
