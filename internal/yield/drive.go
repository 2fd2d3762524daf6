package yield

import (
	"context"
	"fmt"

	"repro/internal/mc"
	"repro/internal/timing"
)

// This file is the one yield executor. Every evaluation — fixed-n or
// adaptive, in-process or sharded across workers — is Drive plus a tallier.
// Drive owns the schedule: fixed-n is a single joint wave [0, n) on the
// plain universe, adaptive follows the Adaptive state machine. The tallier
// owns where a wave's chips are realized: LocalTally runs it in this
// process; serve.Coordinator dispatches it over a worker pool and merges the
// partial tallies. Tallies are integer histograms, so any tallier that
// covers the wave's range exactly returns the same tallies, and the reports
// are byte-identical across backends by construction.

// TallyFunc tallies chips [lo, hi) for every sweep of the evaluation, in
// sweep order. zeroOnly asks for step-1 thresholds only (no tuned bins);
// strata selects the universe: 0 is the plain fixed-n one, > 1 the
// stratified adaptive one (mc.Engine.Stratify). A tallier stops early and
// returns ctx's error when ctx ends.
type TallyFunc func(ctx context.Context, lo, hi int, zeroOnly bool, strata int) ([]SweepTally, error)

// Drive evaluates the sweeps over at most n chips with tally realizing each
// wave. An inactive prec (Eps 0) is exact fixed-n evaluation: one joint wave
// [0, n) on the plain universe, reported as sweep reports. An active prec
// runs the adaptive wave loop until every threshold is within ±Eps or n is
// spent, reported as adaptive reports. Exactly one of the two report slices
// is non-nil on success.
func Drive(ctx context.Context, n int, prec Precision, sweeps []*SweepEvaluator, tally TallyFunc) ([]SweepReport, []AdaptiveReport, error) {
	if !prec.Active() {
		// Not through Adaptive.Next: it floors waves to multiples of its
		// alignment (at least 2), which would drop the last chip of an odd n.
		ts, err := tally(ctx, 0, n, false, 0)
		if err != nil {
			return nil, nil, err
		}
		if err := CheckWave(sweeps, ts, 0, n, false, 0); err != nil {
			return nil, nil, err
		}
		reports := make([]SweepReport, len(sweeps))
		for i, sw := range sweeps {
			reports[i] = sw.ReportOf(ts[i])
		}
		return reports, nil, nil
	}
	a, err := NewAdaptive(prec, n, sweeps...)
	if err != nil {
		return nil, nil, err
	}
	for lo, hi, zeroOnly, ok := a.Next(); ok; lo, hi, zeroOnly, ok = a.Next() {
		ts, err := tally(ctx, lo, hi, zeroOnly, a.Prec.Strata)
		if err != nil {
			return nil, nil, err
		}
		if err := a.Absorb(ts); err != nil {
			return nil, nil, err
		}
	}
	return nil, a.Reports(), nil
}

// CheckWave validates the tallies of chips [lo, hi) of one wave before they
// merge: one tally per sweep, shaped for the wave kind (zero-only tallies
// carry no tuned bins) and its strata (one histogram per stratum, see
// WaveTally), no bin negative, and each stratum's histogram — FirstZero,
// and FirstTuned on full waves — covering exactly the range's chips of
// that stratum. The coordinator runs it on every worker partial, so a
// malformed response, or a pooled one on a stratified wave, is rejected,
// never merged.
func CheckWave(sweeps []*SweepEvaluator, tallies []SweepTally, lo, hi int, zeroOnly bool, strata int) error {
	if len(tallies) != len(sweeps) {
		return fmt.Errorf("yield: wave returned %d tallies for %d sweeps", len(tallies), len(sweeps))
	}
	L := mc.Strata(strata)
	for i, t := range tallies {
		bins := len(sweeps[i].Ts) + 1
		if len(t.FirstZero) != L*bins {
			return fmt.Errorf("yield: wave tally %d has %d zero bins, want %d", i, len(t.FirstZero), L*bins)
		}
		switch {
		case zeroOnly && len(t.FirstTuned) != 0:
			return fmt.Errorf("yield: zero-only wave tally %d carries tuned bins", i)
		case !zeroOnly && len(t.FirstTuned) != L*bins:
			return fmt.Errorf("yield: wave tally %d has %d tuned bins, want %d", i, len(t.FirstTuned), L*bins)
		}
		for _, hist := range [][]int{t.FirstZero, t.FirstTuned} {
			if len(hist) == 0 {
				continue // a zero-only wave's tuned side
			}
			for h := 0; h < L; h++ {
				sum := 0
				for _, c := range hist[h*bins : (h+1)*bins] {
					if c < 0 {
						return fmt.Errorf("yield: wave tally %d has a negative bin", i)
					}
					sum += c
				}
				if want := mc.StratumChips(lo, hi, h, strata); sum != want {
					return fmt.Errorf("yield: wave tally %d covers %d chips of stratum %d, want %d", i, sum, h, want)
				}
			}
		}
	}
	return nil
}

// LocalTally is the in-process tallier: each wave is one TallyRange pass
// over source(strata), guarded by ctx so a cancelled evaluation stops
// consuming chips mid-range. It serves in-process evaluation, the shard
// worker's yield-pass handler and the coordinator's local drain alike.
func LocalTally(source func(strata int) mc.Source, sweeps ...*SweepEvaluator) TallyFunc {
	return func(ctx context.Context, lo, hi int, zeroOnly bool, strata int) ([]SweepTally, error) {
		ts := TallyRange(ctxSource{done: ctx.Done(), src: source(strata)}, lo, hi, zeroOnly, strata, sweeps...)
		if err := ctx.Err(); err != nil {
			return nil, err // chips after the cancellation point never ran
		}
		return ts, nil
	}
}

// Stream is the streaming universe of (g, seed) for LocalTally: a fresh
// engine per wave, stratified as the wave asks, on workers goroutines
// (0 = all cores).
func Stream(g *timing.Graph, seed uint64, workers int) func(strata int) mc.Source {
	return func(strata int) mc.Source {
		eng := mc.New(g, seed)
		eng.Workers = workers
		eng.Stratify = strata
		return eng
	}
}

// ctxSource threads cancellation into an mc.Source pass: once done closes,
// the remaining samples skip their consumer work (the dominant cost) so
// the pass returns promptly. The pass output is garbage after that point.
type ctxSource struct {
	done <-chan struct{}
	src  mc.Source
}

func (s ctxSource) ForEachRangeBatch(lo, hi int, fns ...func(k int, ch *timing.Chip)) {
	guarded := make([]func(k int, ch *timing.Chip), len(fns))
	for i, fn := range fns {
		fn := fn
		guarded[i] = func(k int, ch *timing.Chip) {
			select {
			case <-s.done:
				return
			default:
			}
			fn(k, ch)
		}
	}
	s.src.ForEachRangeBatch(lo, hi, guarded...)
}
