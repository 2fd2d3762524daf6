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
// For a fixed chip both pass conditions are monotone in T — the zero-tuning
// setup slacks and the rescue-feasibility bounds only relax as the period
// grows, and the hold side does not depend on T at all — so the sweep
// reduces to two threshold searches per chip: the first index passing with
// zero tuning, and the first index where rescue is feasible. The rescue
// search builds the T-independent hold-side difference system once per chip
// and re-appends only the setup bounds per probe, through a per-worker
// resettable diffcon.IntSystem and reused Bellman-Ford scratch, so the warm
// per-chip sweep performs no heap allocations. Every per-(chip, period)
// decision evaluates the same arithmetic as Evaluate at that period, so a
// sweep is byte-identical to per-period evaluation — it just realizes the
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

// SweepScratch is the per-worker reusable state of a sweep: the hold-side
// difference system, the Bellman-Ford solver scratch, and the recorded
// T-dependent constraint sites. One scratch must not be shared between
// goroutines; Pass manages a pool internally.
type SweepScratch struct {
	sys *diffcon.IntSystem
	sv  diffcon.IntSolver
	// T-dependent constraint sites recorded by prepare, replayed per probe.
	edges  []int32 // pairs with both endpoints buffered: setup edge a→b
	uppers []int32 // capture unbuffered: upper bound on launch var
	lowers []int32 // launch unbuffered: lower bound on capture var
	selfs  []int32 // same-variable pairs: sign check only
	base   int     // hold-side constraint count (truncation point)
}

// NewScratch allocates a scratch; its buffers grow to the circuit's size on
// first use and are reused afterward.
func (s *SweepEvaluator) NewScratch() *SweepScratch {
	return &SweepScratch{sys: diffcon.NewIntSystem(0)}
}

// prepare builds the chip's T-independent constraint side into the scratch
// and records where the T-dependent setup bounds go. It returns false when
// a hold constraint between same-variable endpoints fails — such a chip is
// unfixable at every period.
func (sc *SweepScratch) prepare(e *Evaluator, ch *timing.Chip) bool {
	g := e.G
	step := e.Spec.Step()
	sc.sys.Reset(len(e.kLo))
	sc.edges = sc.edges[:0]
	sc.uppers = sc.uppers[:0]
	sc.lowers = sc.lowers[:0]
	sc.selfs = sc.selfs[:0]
	for v := range e.kLo {
		sc.sys.AddUpper(v, e.kHi[v])
		sc.sys.AddLower(v, e.kLo[v])
	}
	for p := range g.Pairs {
		pr := &g.Pairs[p]
		a := e.varOf[pr.Launch]
		b := e.varOf[pr.Capture]
		hB := g.HoldBound(ch, p)
		switch {
		case a == b:
			if hB < 0 {
				return false
			}
			sc.selfs = append(sc.selfs, int32(p))
		case a >= 0 && b >= 0:
			sc.sys.Add(b, a, diffcon.GridBound(hB, step))
			sc.edges = append(sc.edges, int32(p))
		case a >= 0: // capture unbuffered
			sc.sys.AddLower(a, -diffcon.GridBound(hB, step))
			sc.uppers = append(sc.uppers, int32(p))
		default: // launch unbuffered
			sc.sys.AddUpper(b, diffcon.GridBound(hB, step))
			sc.lowers = append(sc.lowers, int32(p))
		}
	}
	sc.base = sc.sys.NumConstraints()
	return true
}

// rescueFeasible reports whether the prepared chip can be rescued at T:
// truncate back to the hold side, append the setup bounds for this T, and
// run the reused solver. The bounds computed here are bit-identical to the
// ones Evaluator.system builds at the same T.
func (sc *SweepScratch) rescueFeasible(e *Evaluator, ch *timing.Chip, T float64) bool {
	g := e.G
	step := e.Spec.Step()
	for _, p := range sc.selfs {
		if g.SetupBound(ch, int(p), T) < 0 {
			return false
		}
	}
	sc.sys.Truncate(sc.base)
	for _, p := range sc.edges {
		pr := &g.Pairs[p]
		sc.sys.Add(e.varOf[pr.Launch], e.varOf[pr.Capture], diffcon.GridBound(g.SetupBound(ch, int(p), T), step))
	}
	for _, p := range sc.uppers {
		pr := &g.Pairs[p]
		sc.sys.AddUpper(e.varOf[pr.Launch], diffcon.GridBound(g.SetupBound(ch, int(p), T), step))
	}
	for _, p := range sc.lowers {
		pr := &g.Pairs[p]
		sc.sys.AddLower(e.varOf[pr.Capture], -diffcon.GridBound(g.SetupBound(ch, int(p), T), step))
	}
	return sc.sv.Feasible(sc.sys)
}

// ChipSweep evaluates one chip against the whole sweep, returning the
// smallest sweep indices at which the chip passes with zero tuning and with
// the inserted buffers (len(Ts) = never). Warm calls perform no heap
// allocations.
//
// Both predicates are exactly monotone in T — setup bounds are computed by
// monotone floating-point expressions of T and flooring preserves order, so
// relaxation in the real formulation is relaxation of the evaluated system
// too — which makes the hand-rolled binary searches below agree with
// evaluating every sweep point directly.
func (s *SweepEvaluator) ChipSweep(ch *timing.Chip, sc *SweepScratch) (firstZero, firstTuned int) {
	firstZero = s.firstZeroIndex(ch)
	// A tuned pass is zero-pass OR rescue, both monotone: only rescues
	// strictly before firstZero can improve the tuned threshold.
	firstTuned = firstZero
	if firstZero > 0 && sc.prepare(s.ev, ch) {
		lo, hi := 0, firstZero
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if sc.rescueFeasible(s.ev, ch, s.Ts[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		firstTuned = lo
	}
	return firstZero, firstTuned
}

// firstZeroIndex binary-searches the smallest sweep index at which the
// chip passes with zero tuning (len(Ts) = never) — the step-1 half of
// ChipSweep, shared with the adaptive zero-only waves.
func (s *SweepEvaluator) firstZeroIndex(ch *timing.Chip) int {
	g := s.ev.G
	lo, hi := 0, len(s.Ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.FeasibleAtZero(ch, s.Ts[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
