package timing

import "math"

// Ends is a pair's launch and capture flip-flops, packed for the per-chip
// scans.
type Ends struct{ Launch, Capture int32 }

// endsOf packs the endpoints of pairs.
func endsOf(pairs []Pair) []Ends {
	out := make([]Ends, len(pairs))
	for p := range pairs {
		out[p] = Ends{Launch: int32(pairs[p].Launch), Capture: int32(pairs[p].Capture)}
	}
	return out
}

// PairEnds returns the packed endpoint table, indexed like Pairs. Graphs
// assembled by Build share one read-only table; a hand-built graph gets a
// fresh one per call.
func (g *Graph) PairEnds() []Ends {
	if g.ends != nil {
		return g.ends
	}
	return endsOf(g.Pairs)
}

// certMargin is the relative half-width of the band around req inside
// which a certificate defers to the exact scan. RequiredPeriod's need
// (four terms) and SetupBound (five) are computed in different operation
// orders, so at the same chip and period their signs can disagree only
// when T − req is within their combined rounding error, at most about
// 8·2⁻⁵³·(|T| + mag) ≈ 1e-15·(|T| + mag) with mag bounding the operand
// magnitudes; the band is a thousand times wider.
const certMargin = 1e-12

// certMaxMag bounds |T| + mag for a decision: beyond it (and for any
// infinite or NaN operand) partial sums may overflow and the error bound
// above no longer holds, so the certificate defers.
const certMaxMag = 1e300

// zeroCert is a chip's zero-tuning certificate over graph g; a nil g means
// the chip has none.
type zeroCert struct {
	g *Graph
	// req is RequiredPeriod's value bit for bit; crit is the first pair
	// whose need attains it (−1 when req is RequiredPeriod's floor of 0).
	req  float64
	crit int32
	// holdOK reports every hold bound ≥ 0, in HoldBound's expression order.
	holdOK bool
	// mag is Σ|d̄| over the pairs plus Σ(|s| + 2|q|) over the flip-flops,
	// which bounds every pair's |d̄| + |s| + |q_launch| + |q_capture|; it
	// is NaN or +Inf when some operand is not finite.
	mag float64
}

// Certify computes chip ch's zero-tuning certificate in one pass over the
// packed endpoint table, plus a magnitude sum over the realized delays and
// flip-flop values, and stores it on ch, returning its required period
// and hold verdict. On a hand-built graph (no table) ch is left without a
// certificate and ok is false. Certify never changes a result: every
// decision taken from the certificate equals the exact scan's, and the
// scan runs whenever the certificate cannot decide.
//
//contract:allocfree
func (g *Graph) Certify(ch *Chip) (req float64, holdOK, ok bool) {
	ends := g.ends
	if ends == nil {
		ch.cert = zeroCert{}
		return 0, false, false
	}
	dmax, dmin := ch.DMax[:len(ends)], ch.DMin[:len(ends)]
	setup, hold, skew := ch.Setup, ch.Hold, g.Skew
	crit := int32(-1)
	holdOK = true
	for p, e := range ends {
		skl, skc := skew[e.Launch], skew[e.Capture]
		if need := dmax[p] + setup[e.Capture] + skl - skc; need > req {
			req, crit = need, int32(p)
		}
		if dmin[p]-hold[e.Capture]+skl-skc < 0 {
			holdOK = false
		}
	}
	// Sums, not maxima: one add per value, and any infinite or NaN
	// operand makes mag non-finite.
	mag := 0.0
	for _, d := range dmax {
		mag += math.Abs(d)
	}
	setup = setup[:len(skew)]
	for f, q := range skew {
		mag += math.Abs(setup[f]) + 2*math.Abs(q)
	}
	ch.cert = zeroCert{g: g, req: req, crit: crit, holdOK: holdOK, mag: mag}
	return req, holdOK, true
}

// setupAt decides whether every setup bound is non-negative at T. A
// period more than the band above req passes; one more than the band
// below a req attained by a pair fails; anything else is undecided.
//
//contract:allocfree
func (c *zeroCert) setupAt(T float64) (pass, decided bool) {
	size := math.Abs(T) + c.mag
	if !(size < certMaxMag) {
		return false, false
	}
	d, band := T-c.req, certMargin*size
	switch {
	case d > band:
		return true, true
	case d < -band && c.crit >= 0:
		return false, true
	}
	return false, false
}

// ZeroAt decides from ch's certificate whether ch meets period T with zero
// tuning: FeasibleAtZero's answer whenever decided is true. decided is
// false when ch has no certificate of g or T lies within the rounding band
// of the required period; the caller then scans.
//
//contract:allocfree
func (g *Graph) ZeroAt(ch *Chip, T float64) (pass, decided bool) {
	c := &ch.cert
	if c.g != g {
		return false, false
	}
	if !c.holdOK {
		return false, true
	}
	return c.setupAt(T)
}

// ZeroThreshold decides from ch's certificate the smallest index i of the
// ascending periods Ts at which ch meets Ts[i] with zero tuning
// (len(Ts) = never), and returns the critical pair that fails every period
// below it (−1 when none is known, or when a hold bound fails). ok is false
// when ch has no certificate of g or a period it must decide lies within
// the rounding band; the caller then scans.
//
//contract:allocfree
func (g *Graph) ZeroThreshold(ch *Chip, Ts []float64) (first, crit int, ok bool) {
	c := &ch.cert
	if c.g != g {
		return 0, -1, false
	}
	if !c.holdOK {
		return len(Ts), -1, true
	}
	for i, T := range Ts {
		pass, decided := c.setupAt(T)
		if !decided {
			return 0, -1, false
		}
		if pass {
			return i, int(c.crit), true
		}
	}
	return len(Ts), int(c.crit), true
}
