package consensus

import (
	"testing"
	"testing/quick"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

func TestSplitInitial(t *testing.T) {
	cases := []struct {
		n, delta int
		a, b     int
		wantErr  bool
	}{
		{100, 10, 55, 45, false},
		{100, 0, 50, 50, false},
		{101, 1, 51, 50, false},
		{100, 98, 99, 1, false},
		{100, 100, 0, 0, true}, // empty minority
		{100, 11, 0, 0, true},  // parity mismatch
		{100, -2, 0, 0, true},  // negative gap
		{0, 0, 0, 0, true},     // empty population
		{101, 101, 0, 0, true}, // gap too large
	}
	for _, tc := range cases {
		a, b, err := SplitInitial(tc.n, tc.delta)
		if tc.wantErr {
			if err == nil {
				t.Errorf("SplitInitial(%d, %d) did not error", tc.n, tc.delta)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitInitial(%d, %d): %v", tc.n, tc.delta, err)
			continue
		}
		if a != tc.a || b != tc.b {
			t.Errorf("SplitInitial(%d, %d) = (%d, %d), want (%d, %d)", tc.n, tc.delta, a, b, tc.a, tc.b)
		}
	}
}

func TestSplitInitialProperty(t *testing.T) {
	err := quick.Check(func(nRaw, dRaw uint16) bool {
		n := int(nRaw)%1000 + 3
		delta := MatchParity(n, int(dRaw)%(n-2))
		if delta > n-2 {
			delta -= 2
		}
		if delta < 0 {
			return true
		}
		a, b, err := SplitInitial(n, delta)
		if err != nil {
			return false
		}
		return a+b == n && a-b == delta && b > 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMatchParity(t *testing.T) {
	cases := []struct {
		n, delta, want int
	}{
		{100, 10, 10},
		{100, 11, 12},
		{101, 11, 11},
		{101, 10, 11},
		{100, 0, 0},
		{101, 0, 1},
	}
	for _, tc := range cases {
		if got := MatchParity(tc.n, tc.delta); got != tc.want {
			t.Errorf("MatchParity(%d, %d) = %d, want %d", tc.n, tc.delta, got, tc.want)
		}
	}
}

func TestLVProtocolName(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	if p.Name() == "" {
		t.Error("empty generated name")
	}
	labeled := LVProtocol{Label: "sd-lv"}
	if labeled.Name() != "sd-lv" {
		t.Errorf("Name = %q, want sd-lv", labeled.Name())
	}
}

func TestLVProtocolTrial(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	src := rng.New(3)
	wins := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		won, err := p.Trial(100, 80, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			wins++
		}
	}
	if wins < trials*9/10 {
		t.Errorf("overwhelming majority won only %d/%d", wins, trials)
	}
}

func TestLVProtocolTrialParityError(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	if _, err := p.Trial(100, 3, rng.New(1)); err == nil {
		t.Error("parity mismatch did not error")
	}
}

func TestLVProtocolMaxStepsFailureCounting(t *testing.T) {
	// A chain without any reactions cannot reach consensus; every trial
	// must count as a failure rather than hanging.
	p := LVProtocol{
		Params:   lv.Neutral(0, 0, 0, 0, lv.SelfDestructive),
		MaxSteps: 10,
	}
	won, err := p.Trial(10, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if won {
		t.Error("non-converging trial counted as win")
	}
}

func TestLVProtocolTieBreaks(t *testing.T) {
	// A pure SD competition chain from (1, 1) — n = 2, delta = 0 —
	// always ends in double extinction (one interspecific event reaches
	// (0, 0)). TieIsLoss must always lose; TieIsCoinFlip must win about
	// half the time.
	params := lv.Neutral(0, 0, 1, 0, lv.SelfDestructive)
	src := rng.New(5)

	loss := LVProtocol{Params: params, Ties: TieIsLoss}
	for i := 0; i < 100; i++ {
		won, err := loss.Trial(2, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			t.Fatal("double extinction scored as a win under TieIsLoss")
		}
	}

	coin := LVProtocol{Params: params, Ties: TieIsCoinFlip}
	heads := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		won, err := coin.Trial(2, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			heads++
		}
	}
	if heads < trials*45/100 || heads > trials*55/100 {
		t.Errorf("coin-flip tie break won %d/%d, want ~half", heads, trials)
	}
}

// TestLVProtocolEngines pins the engine selector: the event engine (named
// or not) keeps the historical cache key, the skip engine gets its own,
// unknown names and unsupported rates fail the trial, and the skip engine
// scores double extinction through Ties like the event engine.
func TestLVProtocolEngines(t *testing.T) {
	params := lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive)
	const historical = "lv(non-self-destructive, beta=1 delta=1 alpha=[1 1] gamma=[0 0])|ties=0|maxsteps=0"
	for _, engine := range []string{"", LVEngineEvent} {
		if key := (LVProtocol{Params: params, Engine: engine}).CacheKey(); key != historical {
			t.Errorf("engine %q: cache key %q, want %q", engine, key, historical)
		}
	}
	if key := (LVProtocol{Params: params, Engine: LVEngineSkip}).CacheKey(); key != historical+"|engine=skip" {
		t.Errorf("skip cache key %q", key)
	}
	if _, err := (LVProtocol{Params: params, Engine: "warp"}).Trial(100, 20, rng.New(1)); err == nil {
		t.Error("unknown engine ran a trial")
	}
	gamma := lv.Neutral(1, 1, 1, 1, lv.SelfDestructive)
	if _, err := (LVProtocol{Params: gamma, Engine: LVEngineSkip}).Trial(100, 20, rng.New(1)); err == nil {
		t.Error("skip engine ran a chain with intraspecific competition")
	}

	// SD competition alone from (1, 1) always ends in (0, 0).
	coin := LVProtocol{Params: lv.Neutral(0, 0, 1, 0, lv.SelfDestructive), Ties: TieIsCoinFlip, Engine: LVEngineSkip}
	loss := coin
	loss.Ties = TieIsLoss
	src := rng.New(9)
	heads := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if won, err := loss.Trial(2, 0, src); err != nil || won {
			t.Fatalf("TieIsLoss: won=%v err=%v", won, err)
		}
		won, err := coin.Trial(2, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			heads++
		}
	}
	if heads < trials*45/100 || heads > trials*55/100 {
		t.Errorf("skip engine coin-flip tie break won %d/%d, want ~half", heads, trials)
	}
}
