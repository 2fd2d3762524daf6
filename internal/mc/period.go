package mc

import (
	"slices"
	"sync/atomic"

	"repro/internal/stat"
	"repro/internal/timing"
)

// PeriodStats is the clock-period distribution of the unmodified circuit.
type PeriodStats struct {
	Mu, Sigma float64
	// HoldViolRate is the fraction of chips with at least one hold
	// violation at zero tuning (period independent).
	HoldViolRate float64
	Samples      int
}

// PeriodDistribution estimates µT and σT of the required clock period over
// n samples (the quantities Table I's three target periods are built from).
// One scan over each chip's pairs (timing.Graph.ScanNeeds) yields both its
// required period and its hold verdict; a hand-built graph, which cannot
// scan that way, runs the oracle scans.
func (e *Engine) PeriodDistribution(n int) PeriodStats {
	return e.periodPass(n, nil)
}

// periodPass realizes chips 0..n-1, scans each once and reduces their
// required periods and hold verdicts; with a record it also records every
// chip (RecordPeriod).
func (e *Engine) periodPass(n int, rec *PeriodRecord) PeriodStats {
	g := e.G
	periods := make([]float64, n)
	holds := make([]bool, n)
	forEachChunked(0, n, e.Workers, func() func(k int) {
		r := e.newRealizer()
		var top [recTop]timing.Need
		return func(k int) {
			marksOK := true
			if rec != nil {
				marksOK = r.realizeMarked(k, rec.marks[k*rec.nm:(k+1)*rec.nm])
			} else {
				r.realize(k)
			}
			if e.OnRealize != nil {
				e.OnRealize(k)
			}
			ntop, viol, nviol, ok := g.ScanNeeds(r.ch, top[:])
			if !ok {
				periods[k], holds[k] = g.RequiredPeriod(r.ch), g.HoldViolationsAtZero(r.ch) > 0
				return
			}
			periods[k], holds[k] = 0, nviol > 0
			if ntop > 0 {
				periods[k] = top[0].Value
			}
			if rec != nil {
				rec.store(k, top[:ntop], viol, nviol, marksOK)
			}
		}
	})
	return periodStats(periods, holds)
}

// periodStats reduces the per-chip required periods and hold failures of
// a pass, in chip order.
func periodStats(periods []float64, holds []bool) PeriodStats {
	mu, sigma := stat.MeanStd(periods)
	hv := 0
	for _, h := range holds {
		if h {
			hv++
		}
	}
	n := len(periods)
	return PeriodStats{Mu: mu, Sigma: sigma, HoldViolRate: float64(hv) / float64(max(1, n)), Samples: n}
}

// recTop is how many of a chip's largest setup needs a PeriodRecord keeps.
const recTop = 4

// noViol is PeriodRecord.viol's "no hold violator". Records index pairs
// in 16 bits, so graphs of noViol pairs or more keep none.
const noViol = 0xffff

// Bits of PeriodRecord.meta above the listed-need count.
const (
	metaTop      = 0x0f // how many needs are listed
	metaMoreViol = 0x10 // more than one hold violator
	metaBadMarks = 0x20 // a step mark overflowed: the chip cannot be sought
)

// PeriodRecord is a compact record of one period Monte Carlo pass
// (RecordPeriod), from which RevisePeriod answers the same pass on an
// edited graph by evaluating again, on each chip, only the pairs the edit
// changed. Per chip it keeps
//
//   - the recTop largest positive setup needs with their pairs
//     (timing.Graph.ScanNeeds);
//   - the first hold-violating pair, and whether there are more;
//   - the stream's step marks (timing.Stream.NormalsMarked), with which any
//     deviate of the chip is drawn again by one jump-ahead
//     (timing.Stream.Advance) and at most timing.MarkStride draws.
//
// That is 43 bytes plus one per 32 deviates: 67 bytes a chip on s9234.
//
// A record is immutable once built and may be read concurrently.
type PeriodRecord struct {
	g     *timing.Graph // the graph the pass realized
	seed  uint64
	stats PeriodStats
	// need and pair hold recTop listed needs per chip, descending, in two
	// slabs (a timing.Need would pad to 16 bytes).
	need  []float64
	pair  []uint16
	viol  []uint16 // per chip: the first hold violator, or noViol
	meta  []uint8  // per chip: listed-need count and flags
	marks []uint8  // nm bytes per chip
	nm    int
}

// numDeviates is the length of a chip's deviate buffer on g.
func numDeviates(g *timing.Graph) int { return g.Dim() + len(g.Pairs) + g.NS }

// Bytes returns the record's size in bytes, for memory accounting.
func (r *PeriodRecord) Bytes() int {
	return 8*len(r.need) + 2*len(r.pair) + 2*len(r.viol) + len(r.meta) + len(r.marks)
}

// RecordPeriod returns PeriodDistribution(n), bit for bit, together with a
// record of the pass for RevisePeriod. The record is nil when the graph is
// not packed (spatial regions, or hand-built) or has noViol pairs or more,
// or the engine stratifies: those passes cannot be revised.
func (e *Engine) RecordPeriod(n int) (PeriodStats, *PeriodRecord) {
	g := e.G
	if !g.Packed() || len(g.Pairs) >= noViol || e.Stratify > 1 {
		return e.PeriodDistribution(n), nil
	}
	nm := timing.MarkCount(numDeviates(g))
	rec := &PeriodRecord{
		g:     g,
		seed:  e.Seed,
		need:  make([]float64, n*recTop),
		pair:  make([]uint16, n*recTop),
		viol:  make([]uint16, n),
		meta:  make([]uint8, n),
		marks: make([]uint8, n*nm),
		nm:    nm,
	}
	rec.stats = e.periodPass(n, rec)
	return rec.stats, rec
}

// store records chip k's scan: its listed needs, its first hold violator
// of nviol, and whether its step marks are usable.
func (r *PeriodRecord) store(k int, top []timing.Need, viol int32, nviol int, marksOK bool) {
	for i, t := range top {
		r.need[k*recTop+i], r.pair[k*recTop+i] = t.Value, uint16(t.Pair)
	}
	meta := uint8(len(top))
	if nviol > 1 {
		meta |= metaMoreViol
	}
	if !marksOK {
		meta |= metaBadMarks
	}
	r.meta[k], r.viol[k] = meta, noViol
	if nviol > 0 {
		r.viol[k] = uint16(viol)
	}
}

// Revision says how RevisePeriod answered: Record chips were decided from
// the record, Full chips were realized in full.
type Revision struct{ Record, Full int }

// RevisePeriod returns e.PeriodDistribution(n), bit for bit. rec, when it
// records the same pass (seed and n) on a graph e.G was edited from, lets
// it realize in full only the chips the record cannot decide. For every
// other chip it draws again only the deviates of the pairs the edit
// changed (timing.Graph.ChangedPairs), evaluates their new needs and hold
// bounds (timing.Graph.PairNeedAt), and combines them with the record:
//
//   - the required period is the largest of 0, the best unchanged listed
//     need and the changed needs — exact, because every pair not listed
//     needs at most the last listed need;
//   - the hold verdict fails on a listed violator that did not change, or
//     on a changed pair whose new bound is negative.
//
// A chip is realized in full when every listed need changed and the
// changed needs stay below the last one listed, when its listed violator
// changed but it had more, or when a step mark overflowed. Without a usable
// record — nil, another seed or sample count, a stratified engine, graphs
// ChangedPairs cannot compare, or a change so wide that drawing its
// deviates again would cost about as much as realizing the chips — it runs
// the full pass.
func (e *Engine) RevisePeriod(rec *PeriodRecord, n int) (PeriodStats, Revision) {
	full := func() (PeriodStats, Revision) { return e.PeriodDistribution(n), Revision{Full: n} }
	if rec == nil || rec.seed != e.Seed || len(rec.meta) != n || e.Stratify > 1 {
		return full()
	}
	changed, ok := e.G.ChangedPairs(rec.g)
	if !ok {
		return full()
	}
	if len(changed) == 0 {
		return rec.stats, Revision{Record: n}
	}
	rv := newRevisePlan(e, rec, changed)
	if blocks := (numDeviates(e.G) + timing.MarkStride - 1) / timing.MarkStride; 2*len(rv.blocks) > blocks {
		return full()
	}
	periods := make([]float64, n)
	holds := make([]bool, n)
	var nfull atomic.Int64
	forEachChunked(0, n, e.Workers, func() func(k int) {
		w := &reviser{revisePlan: rv, vals: make([]float64, len(rv.devs))}
		return func(k int) {
			req, holdOK, decided := w.chip(k)
			if !decided {
				nfull.Add(1)
				req, holdOK = w.realize(k)
			}
			periods[k], holds[k] = req, !holdOK
		}
	})
	nf := int(nfull.Load())
	return periodStats(periods, holds), Revision{Record: n - nf, Full: nf}
}

// revisePlan is one RevisePeriod call's plan, shared read-only by its
// workers.
type revisePlan struct {
	e         *Engine
	rec       *PeriodRecord
	changed   []int32 // the changed pairs, ascending
	isChanged []bool  // per pair
	// devs lists the deviates to draw again, ascending: the globals, then
	// each changed pair's own and its capture flip-flop's. pairDev and
	// capDev index devs, per changed pair.
	devs            []int
	pairDev, capDev []int
	blocks          []devBlock
}

// devBlock is the run devs[first:end] of deviates in mark block b; drawing
// draws normals from the block's start reaches all of them.
type devBlock struct{ b, first, end, draws int }

func newRevisePlan(e *Engine, rec *PeriodRecord, changed []int32) *revisePlan {
	g := e.G
	dim, np := g.Dim(), len(g.Pairs)
	rv := &revisePlan{e: e, rec: rec, changed: changed, isChanged: make([]bool, np)}
	for i := 0; i < dim; i++ {
		rv.devs = append(rv.devs, i)
	}
	for _, p := range changed {
		rv.isChanged[p] = true
		rv.devs = append(rv.devs, dim+int(p), dim+np+g.Pairs[p].Capture)
	}
	slices.Sort(rv.devs)
	rv.devs = slices.Compact(rv.devs)
	for _, p := range changed {
		i, _ := slices.BinarySearch(rv.devs, dim+int(p))
		j, _ := slices.BinarySearch(rv.devs, dim+np+g.Pairs[p].Capture)
		rv.pairDev, rv.capDev = append(rv.pairDev, i), append(rv.capDev, j)
	}
	for i := 0; i < len(rv.devs); {
		b := rv.devs[i] / timing.MarkStride
		j := i
		for j < len(rv.devs) && rv.devs[j]/timing.MarkStride == b {
			j++
		}
		rv.blocks = append(rv.blocks, devBlock{b: b, first: i, end: j, draws: rv.devs[j-1] - b*timing.MarkStride + 1})
		i = j
	}
	return rv
}

// reviser is one RevisePeriod worker's state.
type reviser struct {
	*revisePlan
	s    timing.Stream
	buf  [timing.MarkStride]float64
	vals []float64 // the drawn devs, in devs order
	r    *realizer // for chips realized in full, made on first use
}

// chip decides chip k from the record and the changed pairs' deviates,
// drawn again; decided is false when the record cannot decide it.
//
//contract:allocfree
func (w *reviser) chip(k int) (req float64, holdOK, decided bool) {
	rec := w.rec
	meta := rec.meta[k]
	if meta&metaBadMarks != 0 {
		return 0, false, false
	}
	// Draw the deviates again, block by block: jump to the block's first
	// step (its index plus the extra steps of the blocks before it), then
	// draw up to its last needed deviate.
	marks := rec.marks[k*rec.nm : (k+1)*rec.nm]
	w.s.Seed(w.e.Seed, streamSeed(k))
	at, off := 0, uint64(0) // off is block at's first step
	for _, bl := range w.blocks {
		for ; at < bl.b; at++ {
			off += timing.MarkStride + timing.MarkExtra(marks, at)
		}
		w.s.Advance(off - w.s.Steps())
		w.s.Normals(w.buf[:bl.draws])
		base := bl.b * timing.MarkStride
		for i := bl.first; i < bl.end; i++ {
			w.vals[i] = w.buf[w.devs[i]-base]
		}
	}
	g, v := w.e.G, w.vals
	holdBad := false
	for i, p := range w.changed {
		need, hb := g.PairNeedAt(int(p), v[0], v[1], v[2], v[w.pairDev[i]], v[w.capDev[i]])
		if need > req {
			req = need
		}
		if hb < 0 {
			holdBad = true
		}
	}
	listed := k*recTop + int(meta&metaTop)
	need, pair := rec.need[k*recTop:listed], rec.pair[k*recTop:listed]
	unchanged := false
	for i, p := range pair {
		if !w.isChanged[p] {
			if need[i] > req {
				req = need[i]
			}
			unchanged = true
			break
		}
	}
	if !unchanged && len(need) == recTop && !(req >= need[recTop-1]) {
		return 0, false, false
	}
	switch viol := rec.viol[k]; {
	case viol != noViol && !w.isChanged[viol]:
		holdBad = true
	case viol != noViol && meta&metaMoreViol != 0 && !holdBad:
		return 0, false, false
	}
	return req, !holdBad, true
}

// realize realizes chip k in full and scans it as PeriodDistribution does.
func (w *reviser) realize(k int) (req float64, holdOK bool) {
	if w.r == nil {
		w.r = w.e.newRealizer()
	}
	w.r.realize(k)
	if w.e.OnRealize != nil {
		w.e.OnRealize(k)
	}
	var top [recTop]timing.Need
	ntop, _, nviol, _ := w.e.G.ScanNeeds(w.r.ch, top[:])
	if ntop > 0 {
		req = top[0].Value
	}
	return req, nviol == 0
}
