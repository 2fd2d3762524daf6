package timing

import "math"

// Need is one pair's setup need on a chip: the period its setup constraint
// asks for with zero tuning, d̄ + s_capture + q_launch − q_capture, as
// RequiredPeriod and Certify compute it.
type Need struct {
	Value float64
	Pair  int32
}

// ScanNeeds scans chip ch once over the packed endpoint table, like
// Certify, and records the largest setup needs and the hold violators.
// top receives the min(len(top), #positive needs) largest positive needs in
// descending order, every other pair's need being at most the last one
// listed (or at most 0, or NaN, when fewer than len(top) are listed); ntop
// is how many were listed. viol is the first pair whose hold bound is
// negative (−1 when none) and nviol how many there are. The chip's
// required period is top[0].Value (0 when ntop is 0) and its hold verdict
// nviol == 0, bit for bit Certify's: the needs and bounds are Certify's
// expressions, and a maximum is an exact selection. top must not be empty.
// A hand-built graph has no endpoint table: ok is false and nothing is
// scanned.
//
//contract:allocfree
func (g *Graph) ScanNeeds(ch *Chip, top []Need) (ntop int, viol int32, nviol int, ok bool) {
	ends := g.ends
	if ends == nil {
		return 0, -1, 0, false
	}
	dmax, dmin := ch.DMax[:len(ends)], ch.DMin[:len(ends)]
	setup, hold, skew := ch.Setup, ch.Hold, g.Skew
	floor, k := 0.0, len(top)
	viol = -1
	for p, e := range ends {
		skl, skc := skew[e.Launch], skew[e.Capture]
		if need := dmax[p] + setup[e.Capture] + skl - skc; need > floor {
			// Insert into the descending list, dropping its last entry
			// when full; ties keep the earlier pair first.
			i := min(ntop, k-1)
			for i > 0 && top[i-1].Value < need {
				top[i] = top[i-1]
				i--
			}
			top[i] = Need{Value: need, Pair: int32(p)}
			if ntop < k {
				ntop++
			}
			if ntop == k {
				floor = top[k-1].Value
			}
		}
		if dmin[p]-hold[e.Capture]+skl-skc < 0 {
			if nviol == 0 {
				viol = int32(p)
			}
			nviol++
		}
	}
	return ntop, viol, nviol, true
}

// Packed reports whether the graph realizes through the packed
// single-region tables (realize3), the form PairNeedAt and ChangedPairs
// need.
func (g *Graph) Packed() bool { return g.pairs3 != nil }

// PairNeedAt evaluates pair p of a packed graph from deviates alone: its
// setup need and hold bound on the chip whose global deviates are g0…g2,
// whose pair-p deviate is rp and whose capture flip-flop deviate is rf.
// Both are bit for bit the values ScanNeeds and Certify read from that
// chip once realized, through the same record evaluation (form3.eval), the
// same clamps and the same expressions.
//
//contract:allocfree
func (g *Graph) PairNeedAt(p int, g0, g1, g2, rp, rf float64) (need, holdBound float64) {
	e := g.ends[p]
	q := &g.pairs3[p]
	mx := q.a.eval(g0, g1, g2, rp)
	mn := q.b.eval(g0, g1, g2, rp)
	if mn > mx {
		mn = mx
	}
	f := &g.ffs3[e.Capture]
	s := f.a.eval(g0, g1, g2, rf)
	h := f.b.eval(g0, g1, g2, rf)
	if s < 0 {
		s = 0
	}
	if h < 0 {
		h = 0
	}
	skl, skc := g.Skew[e.Launch], g.Skew[e.Capture]
	return mx + s + skl - skc, mn - h + skl - skc
}

// ChangedPairs lists, ascending, the pairs whose setup need or hold bound
// can differ between g and base on a chip realized from the same
// deviates: a pair whose packed record differs from base's bit for bit,
// or whose capture flip-flop's record does. Every other pair reads the
// same numbers on both graphs. ok is false when the graphs are not
// comparable that way — either is not packed, or their flip-flop counts,
// pair skeletons or skews differ — and every pair must be taken as
// changed.
func (g *Graph) ChangedPairs(base *Graph) (changed []int32, ok bool) {
	if !g.Packed() || !base.Packed() || g.NS != base.NS || len(g.ends) != len(base.ends) {
		return nil, false
	}
	for f := range g.Skew {
		if math.Float64bits(g.Skew[f]) != math.Float64bits(base.Skew[f]) {
			return nil, false
		}
	}
	ffChanged := make([]bool, g.NS)
	for f := range g.ffs3 {
		ffChanged[f] = !g.ffs3[f].same(&base.ffs3[f])
	}
	for p, e := range g.ends {
		if e != base.ends[p] {
			return nil, false
		}
		if ffChanged[e.Capture] || !g.pairs3[p].same(&base.pairs3[p]) {
			changed = append(changed, int32(p))
		}
	}
	return changed, true
}

// same reports whether two records are equal bit for bit.
func (q *rec3) same(o *rec3) bool {
	return q.a.same(&o.a) && q.b.same(&o.b)
}

func (f *form3) same(o *form3) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(f.mean, o.mean) && eq(f.c0, o.c0) && eq(f.c1, o.c1) && eq(f.c2, o.c2) && eq(f.rand, o.rand)
}
