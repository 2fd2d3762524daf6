package yield

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/diffcon"
	"repro/internal/mc"
	"repro/internal/stat"
	"repro/internal/timing"
)

// SweepReport is the yield measured at every period of a sorted sweep over
// one chip population: Original[i] / Tuned[i] correspond to Ts[i].
type SweepReport struct {
	Ts       []float64
	Original []stat.Yield
	Tuned    []stat.Yield
}

// At extracts the single-period Report for sweep point i.
func (r SweepReport) At(i int) Report {
	return Report{T: r.Ts[i], Original: r.Original[i], Tuned: r.Tuned[i]}
}

// SweepEvaluator answers a whole sorted period sweep per chip in one shot.
//
// For a fixed chip both pass conditions are monotone in T: every setup
// bound is a chain of IEEE operations, each monotone in T, so it is
// non-decreasing in T, and the hold side does not depend on T at all. Per
// chip the sweep therefore reduces to two thresholds, the first index
// passing with zero tuning and the first index where the buffers rescue
// the chip. ChipSweep finds the first with one scan over the pairs and the
// second with a binary search over Bellman-Ford probes of the rescue
// sites only (the pair classes are fixed by NewEvaluator). The probes
// reuse a per-worker resettable diffcon.IntSystem and solver scratch, so
// the warm per-chip sweep performs no heap allocations. Every per-(chip,
// period) decision equals Evaluate's at that period, so a sweep is
// byte-identical to per-period evaluation; it just realizes the
// population once instead of once per period.
type SweepEvaluator struct {
	ev   *Evaluator
	Ts   []float64
	pool sync.Pool // *SweepScratch
}

// NewSweepEvaluator prepares a sweep over Ts, which must be nonempty and
// sorted ascending.
func NewSweepEvaluator(ev *Evaluator, Ts []float64) (*SweepEvaluator, error) {
	if len(Ts) == 0 {
		return nil, fmt.Errorf("yield: empty period sweep")
	}
	if !sort.Float64sAreSorted(Ts) {
		return nil, fmt.Errorf("yield: period sweep not sorted ascending")
	}
	s := &SweepEvaluator{ev: ev, Ts: append([]float64(nil), Ts...)}
	s.pool.New = func() any { return s.NewScratch() }
	return s, nil
}

// SweepScratch is the per-worker reusable state of the rescue search: a
// difference system holding one chip's hold side (the T-independent
// prefix every probe truncates back to) and the Bellman-Ford solver
// scratch. One scratch must not be shared between goroutines; RangePass
// manages a pool internally.
type SweepScratch struct {
	sys  *diffcon.IntSystem
	sv   diffcon.IntSolver
	base int // hold-side constraint count (truncation point)
}

// NewScratch allocates a scratch; its buffers grow to the circuit's size on
// first use and are reused afterward.
func (s *SweepEvaluator) NewScratch() *SweepScratch {
	return &SweepScratch{sys: diffcon.NewIntSystem(0)}
}

// prepare builds the chip's T-independent constraint side over the rescue
// sites: the buffer windows and every hold bound that involves a buffered
// variable. Self pairs contribute nothing; ChipSweep's scan has already
// checked them.
//
//contract:allocfree
func (sc *SweepScratch) prepare(e *Evaluator, ch *timing.Chip) {
	g := e.G
	step := e.Spec.Step()
	sc.sys.Reset(len(e.kLo))
	for v := range e.kLo {
		sc.sys.AddUpper(v, e.kHi[v])
		sc.sys.AddLower(v, e.kLo[v])
	}
	for _, st := range e.edges {
		sc.sys.Add(int(st.b), int(st.a), diffcon.GridBound(g.HoldBound(ch, int(st.p)), step))
	}
	for _, st := range e.uppers {
		sc.sys.AddLower(int(st.a), -diffcon.GridBound(g.HoldBound(ch, int(st.p)), step))
	}
	for _, st := range e.lowers {
		sc.sys.AddUpper(int(st.b), diffcon.GridBound(g.HoldBound(ch, int(st.p)), step))
	}
	sc.base = sc.sys.NumConstraints()
}

// rescueFeasible reports whether the buffers can satisfy every rescue
// site's constraints at T on the prepared chip: truncate back to the hold
// side, append the setup bounds for this T, and run the reused solver.
// The bounds are bit-identical to the ones Evaluator.fillSystem builds at
// the same T; the self pairs' setup side is ChipSweep's to check.
//
//contract:allocfree
func (sc *SweepScratch) rescueFeasible(e *Evaluator, ch *timing.Chip, T float64) bool {
	g := e.G
	step := e.Spec.Step()
	sc.sys.Truncate(sc.base)
	for _, st := range e.edges {
		sc.sys.Add(int(st.a), int(st.b), diffcon.GridBound(g.SetupBound(ch, int(st.p), T), step))
	}
	for _, st := range e.uppers {
		sc.sys.AddUpper(int(st.a), diffcon.GridBound(g.SetupBound(ch, int(st.p), T), step))
	}
	for _, st := range e.lowers {
		sc.sys.AddLower(int(st.b), -diffcon.GridBound(g.SetupBound(ch, int(st.p), T), step))
	}
	return sc.sv.Feasible(sc.sys)
}

// ChipSweep evaluates one chip against the whole sweep, returning the
// smallest sweep indices at which the chip passes with zero tuning and with
// the inserted buffers (len(Ts) = never). Warm calls perform no heap
// allocations.
//
// One scan (see scan) yields firstZero and selfFirst, the first index at
// which every self pair meets setup. No tuning moves a self pair, so the
// chip is rescued at Ts[i] exactly when i ≥ selfFirst and the rescue
// pairs' difference system is feasible at Ts[i]. Both conditions are
// monotone in T, and a zero pass is a rescue, so the tuned threshold is
// the first feasible probe of a binary search over [selfFirst, firstZero);
// a chip with selfFirst = firstZero (in particular firstZero = 0) needs no
// probe.
//
//contract:allocfree
func (s *SweepEvaluator) ChipSweep(ch *timing.Chip, sc *SweepScratch) (firstZero, firstTuned int) {
	selfFirst, firstZero := s.scan(ch)
	if selfFirst >= firstZero {
		return firstZero, firstZero
	}
	sc.prepare(s.ev, ch)
	lo, hi := selfFirst, firstZero
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sc.rescueFeasible(s.ev, ch, s.Ts[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return firstZero, lo
}

// firstZeroIndex returns the smallest sweep index at which the chip passes
// with zero tuning (len(Ts) = never), the step-1 half of ChipSweep shared
// with the adaptive zero-only waves.
//
//contract:allocfree
func (s *SweepEvaluator) firstZeroIndex(ch *timing.Chip) int {
	if z, _, ok := s.ev.G.ZeroThreshold(ch, s.Ts); ok {
		return z
	}
	_, firstZero := s.scan(ch)
	return firstZero
}

// scan computes a chip's zero-tuning threshold firstZero in one pass over
// the pairs, self pairs first, together with selfFirst, the threshold of
// the self pairs alone. The chip passes with zero tuning at Ts[i] exactly
// when no hold bound is negative and every setup bound at Ts[i] is
// non-negative. Setup bounds are non-decreasing in T, so that holds for
// i ≥ maxₚ firstₚ, where firstₚ is pair p's own first passing index: a
// single candidate index advanced past each pair's failing periods
// computes the maximum in O(pairs + len(Ts)) bound evaluations, where a
// binary search pays about log₂(len(Ts)+1) full FeasibleAtZero passes.
//
// A self pair failing hold can never pass, tuned or not, so the chip
// returns (len(Ts), len(Ts)), as it does when the candidate runs off the
// sweep among the self pairs. A rescue pair failing hold only rules out
// the zero pass: firstZero = len(Ts), selfFirst intact.
//
// A certified chip (timing.Graph.ZeroThreshold) skips the pass when its
// certificate settles the answer: firstZero = 0 needs nothing more, and a
// critical pair that no tuning moves (a self pair) fails every period
// below firstZero, so selfFirst = firstZero. Only chips whose critical
// pair touches a buffer, or whose certificate defers, still scan.
//
//contract:allocfree
func (s *SweepEvaluator) scan(ch *timing.Chip) (selfFirst, firstZero int) {
	if z, crit, ok := s.ev.G.ZeroThreshold(ch, s.Ts); ok && (z == 0 || crit >= 0 && s.ev.self(crit)) {
		return z, z
	}
	nT := len(s.Ts)
	i, ok := s.advance(ch, s.ev.selfs, 0)
	if !ok || i == nT {
		return nT, nT
	}
	selfFirst = i
	if i, ok = s.advance(ch, s.ev.rescue, i); !ok {
		return selfFirst, nT
	}
	return selfFirst, i
}

// advance moves the candidate sweep index i past every period at which
// one of the pairs ps fails setup with zero tuning, stopping at len(Ts).
// ok is false when one of them fails hold. The bounds are the expressions
// of timing.Graph.HoldBound and SetupBound, operation for operation, over
// the pre-resolved endpoints.
//
//contract:allocfree
func (s *SweepEvaluator) advance(ch *timing.Chip, ps []pairRef, i int) (next int, ok bool) {
	skew := s.ev.G.Skew
	Ts := s.Ts
	for _, r := range ps {
		skl, skc := skew[r.launch], skew[r.capture]
		if ch.DMin[r.p]-ch.Hold[r.capture]+skl-skc < 0 {
			return i, false
		}
		dc := ch.Setup[r.capture]
		dmax := ch.DMax[r.p]
		for i < len(Ts) && Ts[i]-dc-dmax+skc-skl < 0 {
			i++
		}
		if i == len(Ts) {
			break
		}
	}
	return i, true
}

// SweepTally is the mergeable partial result of a sweep over any subset of
// chips: FirstZero[i] / FirstTuned[i] count chips whose pass threshold is
// sweep index i (index len(Ts) = never passes). Tallies are pure integer
// histograms summed over chips, so merging k-range partials in any order
// reproduces the single-pass tally exactly — the property the sharded
// sample loop's distributed reduce rests on.
type SweepTally struct {
	FirstZero  []int `json:"first_zero"`
	FirstTuned []int `json:"first_tuned"`
}

// Chips returns the number of chips the tally covers.
func (t SweepTally) Chips() int {
	n := 0
	for _, c := range t.FirstZero {
		n += c
	}
	return n
}

// Merge adds another partial tally (from a disjoint chip range) into t.
// Zero-only tallies (FirstTuned nil) merge into a zero-only accumulator.
func (t *SweepTally) Merge(o SweepTally) error {
	if len(o.FirstZero) != len(t.FirstZero) || len(o.FirstTuned) != len(t.FirstTuned) {
		return fmt.Errorf("yield: merging tallies of different sweep lengths (%d vs %d)",
			len(o.FirstZero), len(t.FirstZero))
	}
	for i, c := range o.FirstZero {
		t.FirstZero[i] += c
	}
	for i, c := range o.FirstTuned {
		t.FirstTuned[i] += c
	}
	return nil
}

// NewTally returns an empty tally sized for this sweep (a merge identity).
func (s *SweepEvaluator) NewTally() SweepTally {
	return SweepTally{
		FirstZero:  make([]int, len(s.Ts)+1),
		FirstTuned: make([]int, len(s.Ts)+1),
	}
}

// RangePass begins a tally pass over the chip sub-range [lo, hi). The
// consume function accepts global sample indices k ∈ [lo, hi) and is safe
// for concurrent use from mc workers (per-worker scratch comes from an
// internal pool; thresholds land in k-indexed arrays); tally reduces the
// range sequentially afterward, so the partial is byte-identical for any
// worker count.
func (s *SweepEvaluator) RangePass(lo, hi int) (consume func(k int, ch *timing.Chip), tally func() SweepTally) {
	firstZero := make([]int32, hi-lo)
	firstTuned := make([]int32, hi-lo)
	consume = func(k int, ch *timing.Chip) {
		sc := s.pool.Get().(*SweepScratch)
		z, tn := s.ChipSweep(ch, sc)
		s.pool.Put(sc)
		firstZero[k-lo] = int32(z)
		firstTuned[k-lo] = int32(tn)
	}
	tally = func() SweepTally {
		t := s.NewTally()
		for i := range firstZero {
			t.FirstZero[firstZero[i]]++
			t.FirstTuned[firstTuned[i]]++
		}
		return t
	}
	return consume, tally
}

// RangePassZero is the zero-only form of RangePass: only the step-1
// (zero-tuning) threshold search runs — no rescue system, no Bellman–Ford
// — so a chip costs a handful of FeasibleAtZero probes instead of a
// solver pass. The tally carries FirstZero only (FirstTuned stays nil, so
// it merges only with other zero-only tallies). The adaptive evaluator uses
// these cheap waves to extend the step-1 horizon (original yield, and the
// control-variate correction of tuned yield) without paying step-2 cost.
func (s *SweepEvaluator) RangePassZero(lo, hi int) (consume func(k int, ch *timing.Chip), tally func() SweepTally) {
	firstZero := make([]int32, hi-lo)
	consume = func(k int, ch *timing.Chip) {
		firstZero[k-lo] = int32(s.firstZeroIndex(ch))
	}
	tally = func() SweepTally {
		t := SweepTally{FirstZero: make([]int, len(s.Ts)+1)}
		for _, z := range firstZero {
			t.FirstZero[z]++
		}
		return t
	}
	return consume, tally
}

// ReportOf folds a (complete) tally into the cumulative sweep report: the
// yield at sweep point i counts every chip whose threshold is ≤ i.
func (s *SweepEvaluator) ReportOf(t SweepTally) SweepReport {
	nT := len(s.Ts)
	n := t.Chips()
	rep := SweepReport{
		Ts:       append([]float64(nil), s.Ts...),
		Original: make([]stat.Yield, nT),
		Tuned:    make([]stat.Yield, nT),
	}
	passZero, passTuned := 0, 0
	for i := 0; i < nT; i++ {
		passZero += t.FirstZero[i]
		passTuned += t.FirstTuned[i]
		rep.Original[i] = stat.Yield{Pass: passZero, Total: n}
		rep.Tuned[i] = stat.Yield{Pass: passTuned, Total: n}
	}
	return rep
}

// EvaluateSweep measures Yo and Y at every period of the sorted sweep Ts
// over n chips from src, realizing each chip exactly once. The result is
// byte-identical to calling Evaluate per sweep point on the same universe.
func EvaluateSweep(ev *Evaluator, src mc.Source, n int, Ts []float64) (SweepReport, error) {
	sw, err := NewSweepEvaluator(ev, Ts)
	if err != nil {
		return SweepReport{}, err
	}
	return EvaluateMany(src, n, sw)[0], nil
}

// TallyRange runs one shared realization pass over chips [lo, hi) of src
// feeding every sweep, returning their partial tallies in order — the
// unit every tallier runs: disjoint ranges tiling a wave merge
// (SweepTally.Merge) into exactly the tally one full pass produces. With
// zeroOnly set, only the step-1 threshold search runs (RangePassZero) and
// the tallies carry FirstZero alone.
//
//contract:allocfree
func TallyRange(src mc.Source, lo, hi int, zeroOnly bool, sweeps ...*SweepEvaluator) []SweepTally {
	pass := (*SweepEvaluator).RangePass
	if zeroOnly {
		pass = (*SweepEvaluator).RangePassZero
	}
	//lint:ignore contract:allocfree per-wave header: O(sweeps), not O(samples)
	consumes := make([]func(k int, ch *timing.Chip), len(sweeps))
	//lint:ignore contract:allocfree per-wave header: O(sweeps), not O(samples)
	tallies := make([]func() SweepTally, len(sweeps))
	for i, sw := range sweeps {
		consumes[i], tallies[i] = pass(sw, lo, hi)
	}
	src.ForEachRangeBatch(lo, hi, consumes...)
	//lint:ignore contract:allocfree per-wave partial-tally result: O(sweeps), not O(samples)
	out := make([]SweepTally, len(sweeps))
	for i, tl := range tallies {
		out[i] = tl()
	}
	return out
}

// EvaluateMany runs one shared realization pass over src feeding every
// sweep — one per strategy or period grid — and returns their reports in
// order. This is the batched form of the (period, strategy) query matrix:
// n chips are realized once in total, not once per query.
func EvaluateMany(src mc.Source, n int, sweeps ...*SweepEvaluator) []SweepReport {
	reports, _, _ := Drive(context.Background(), n, Precision{}, sweeps, LocalTally(func(int) mc.Source { return src }, sweeps...))
	return reports // a background local fixed-n pass cannot fail
}
