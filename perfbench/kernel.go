package main

import (
	"fmt"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// kernelPhase times direct public calls into the bottom layers — RNG
// draws, the LV event kernel, the lockstep population block, and one
// Monte-Carlo window at 1 and at 2 workers — for the traced run.
type kernelPhase struct {
	tr *tracer

	rngNS float64

	lvEvents, lvMaxTrial, lvTrials int64
	lvTime                         time.Duration

	blockTrials int64
	blockTime   time.Duration

	scaling float64
}

// sink keeps the RNG loop's result live so the compiler cannot drop it.
var sink uint64

func (k *kernelPhase) report(b *bench) {
	b.set("rng.ns_per_draw", k.rngNS)
	b.set("lv.ns_per_event", ratio(float64(k.lvTime.Nanoseconds()), float64(k.lvEvents)))
	b.set("lv.events_per_trial", ratio(float64(k.lvEvents), float64(k.lvTrials)))
	b.set("lv.max_trial_event_share", ratio(float64(k.lvMaxTrial), float64(k.lvEvents)))
	b.set("protocols.ns_per_trial", ratio(float64(k.blockTime.Nanoseconds()), float64(k.blockTrials)))
	b.set("mc.scaling_efficiency", k.scaling)
}

// timeRNG times draws from rng.NewStream streams: the median of three
// runs of 2^24 draws.
func (k *kernelPhase) timeRNG(seed uint64) {
	const draws = 1 << 24
	var per []float64
	for rep := uint64(0); rep < 3; rep++ {
		id := k.tr.start("rng.draws", 0)
		src := rng.NewStream(seed, rep)
		t := time.Now()
		var acc uint64
		for i := 0; i < draws; i++ {
			acc ^= src.Uint64()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/draws)
		k.tr.end(id)
		sink ^= acc
	}
	k.rngNS = median(per)
	fmt.Printf("kernel rng: %.3f ns/draw\n", k.rngNS)
}

// timeLV runs `trials` consensus trials of the LV chain from each state on
// per-trial streams keyed like the experiments' (seed ^ state, trial).
func (k *kernelPhase) timeLV(params lv.Params, states []lv.State, seed uint64, trials int) error {
	for _, s := range states {
		id := k.tr.start("lv.run", 0)
		stream := seed ^ uint64(s.X0*1000003+s.X1)
		var src rng.Source
		var events, longest int64
		t := time.Now()
		for i := 0; i < trials; i++ {
			src.ReseedStream(stream, uint64(i))
			out, err := lv.Run(params, s, &src, lv.RunOptions{})
			if err != nil {
				return fmt.Errorf("lv.Run from %+v: %w", s, err)
			}
			events += int64(out.Steps)
			longest = max(longest, int64(out.Steps))
		}
		elapsed := time.Since(t)
		k.tr.end(id)
		k.lvTime += elapsed
		k.lvEvents += events
		k.lvTrials += int64(trials)
		k.lvMaxTrial = max(k.lvMaxTrial, longest)
		fmt.Printf("kernel lv %s (%d,%d): %d trials, %d events, longest %d, %.2f ns/event\n",
			params, s.X0, s.X1, trials, events, longest, float64(elapsed.Nanoseconds())/float64(max(events, 1)))
	}
	return nil
}

// timeBlock runs `blocks` lockstep blocks of the protocol at (n, delta).
func (k *kernelPhase) timeBlock(p consensus.Protocol, n, delta int, seed uint64, blocks int) error {
	bt, ok := p.(consensus.BlockTrialer)
	if !ok || bt.TrialBlockLanes() <= 0 {
		return fmt.Errorf("%s has no lockstep block", p.Name())
	}
	lanes := bt.TrialBlockLanes()
	block, err := bt.NewTrialBlock(n, delta)
	if err != nil {
		return err
	}
	wins := make([]bool, lanes)
	id := k.tr.start("protocols.block", 0)
	t := time.Now()
	for i := 0; i < blocks; i++ {
		if err := block(seed, i*lanes, (i+1)*lanes, wins); err != nil {
			return err
		}
	}
	elapsed := time.Since(t)
	k.tr.end(id)
	k.blockTime += elapsed
	k.blockTrials += int64(blocks * lanes)
	fmt.Printf("kernel lockstep %s n=%d delta=%d: %d trials, %.0f ns/trial\n",
		p.Name(), n, delta, blocks*lanes, float64(elapsed.Nanoseconds())/float64(blocks*lanes))
	return nil
}

// timeScaling counts one trial window at 1 and at 2 workers, twice each in
// alternation, and keeps each side's faster time. The win counts must
// agree — results never depend on the worker count — and the efficiency is
// trials/s at 2 workers over twice trials/s at 1.
func (k *kernelPhase) timeScaling(b *bench, p consensus.Protocol, n, delta, trials int, seed uint64) error {
	var best [2]time.Duration
	var wins [2][2]int
	for rep := 0; rep < 2; rep++ {
		for i, w := range []int{1, 2} {
			id := k.tr.start("mc.window", 0)
			t := time.Now()
			var err error
			wins[rep][i], err = consensus.CountWins(p, n, delta, 0, trials, consensus.EstimateOptions{Workers: w, Seed: seed})
			elapsed := time.Since(t)
			k.tr.end(id)
			if err != nil {
				return err
			}
			if rep == 0 || elapsed < best[i] {
				best[i] = elapsed
			}
		}
	}
	b.check(wins[0] == wins[1] && wins[0][0] == wins[0][1], "%s window n=%d delta=%d: win counts %v differ across worker counts", p.Name(), n, delta, wins)
	k.scaling = best[0].Seconds() / (2 * best[1].Seconds())
	fmt.Printf("kernel mc window %s n=%d delta=%d: %d trials, %.3f s at 1 worker, %.3f s at 2, efficiency %.3f\n",
		p.Name(), n, delta, trials, best[0].Seconds(), best[1].Seconds(), k.scaling)
	return nil
}

func kernelLVSweep(b *bench, k *kernelPhase, pass *passResult) error {
	k.timeRNG(b.cfg.seed)
	params := map[string]lv.Params{
		"T1-SD":  lv.Neutral(1, 1, 1, 0, lv.SelfDestructive),
		"T1-NSD": lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive),
	}
	var last point
	for _, scope := range []string{"T1-SD", "T1-NSD"} {
		var states []lv.State
		for _, pt := range pass.counts.Points {
			if pt.Scope == scope && pt.Found {
				states = append(states, lv.State{X0: (pt.N + pt.Threshold) / 2, X1: (pt.N - pt.Threshold) / 2})
				last = pt
			}
		}
		if err := k.timeLV(params[scope], states, b.cfg.seed, 100); err != nil {
			return err
		}
	}
	if last.N == 0 {
		return fmt.Errorf("lv-sweep pass found no thresholds")
	}
	return k.timeScaling(b, consensus.LVProtocol{Params: params[last.Scope]}, last.N, last.Threshold, 1000, b.cfg.seed)
}
