package insertion

import (
	"math"

	"repro/internal/diffcon"
)

// Support enumeration for the minimum tuning count. A support S is the set
// of a component's FFs that carry a non-zero tuning; every other FF sits
// at the origin (x = 0). The component's setup/hold rows plus the tuning
// windows are then a difference-constraint system over S, so whether S can
// repair the sample is a Bellman-Ford question, and the minimum count nk —
// the first support size with a feasible support — needs no ILP.
//
// The count ILP accepts points within its tolerances: a usage binary within
// the integrality tolerance (1e-6) of 0 counts as unused although it lets
// |x| reach τ·1e-6, and a grid index within 1e-6 of an integer counts as
// integral (an s·1e-6 ≤ τ·1e-6 shift in x). With two endpoints per row, the
// ILP can call a support feasible that misses a row by up to 2τ·1e-6 plus
// the LP tolerance. So each check runs twice, with every pair bound shifted
// by ∓δ, δ = countBand·τ: a support whose tightened system is feasible is
// feasible to the ILP too, one whose loosened system is infeasible is
// infeasible to it, and anything between is undecided. nk is decided only
// when every smaller support is robustly infeasible and some support of
// size nk is robustly feasible; otherwise solveComponent asks the ILP.

const (
	// countBand is δ/τ: twice the ILP's worst tolerance slack per row.
	countBand = 4e-6
	// maxCountFFs caps the components countMin enumerates (the support is
	// a bitmask); larger ones go to the ILP. The presets' components have
	// at most 8 FFs.
	maxCountFFs = 16
	// maxCountSupports caps the supports one countMin call checks.
	maxCountSupports = 1 << 12
)

// verdict classifies one support.
type verdict int8

const (
	supportInfeasible verdict = iota // loosened system infeasible
	supportUndecided                 // only the loosened system is feasible
	supportFeasible                  // tightened system feasible
)

// fEdge is one edge of the float constraint graph: x_to − x_from ≤ w.
type fEdge struct {
	from, to int
	w        float64
}

// countMin decides the minimum tuning count of the component whose rows
// walkRows just listed (n FFs). Supports are enumerated by size 0, 1, 2, …
// and, within a size, in increasing bitmask order. It reports decided =
// false for components over the caps, for an infeasible or undecided full
// support, and when a size's only candidates are undecided. On a decision
// it records where the size-nk enumeration stopped (nkMask, nkOpen,
// nkBudget), so project continues it instead of starting over.
//
// It never decides nk = 0: every component holds an endpoint of a violated
// pair, whose row fails the empty support's tightened check. The size-0
// pass still matters — a hairline row passes the loosened check, which
// leaves the count undecided rather than 1.
//
//contract:allocfree
func (s *sampleSolver) countMin(n int) (nk int, decided bool) {
	if n > maxCountFFs {
		return 0, false
	}
	full := uint32(1)<<n - 1
	// The full support first: when it fails, no smaller one can pass.
	if s.supportVerdict(n, full) != supportFeasible {
		return 0, false
	}
	budget := maxCountSupports
	for k := 0; k <= n; k++ {
		open := false
		for mask := uint32(1)<<k - 1; mask <= full; mask = nextSupport(mask) {
			if budget--; budget < 0 {
				return 0, false
			}
			switch s.supportVerdict(n, mask) {
			case supportFeasible:
				// project resumes the size-k enumeration here.
				s.nkMask, s.nkOpen, s.nkBudget = mask, open, budget
				return k, true
			case supportUndecided:
				open = true
			}
			if mask == 0 {
				break
			}
		}
		if open {
			return 0, false
		}
	}
	return 0, false // unreachable: the full support is feasible
}

// nextSupport returns the next larger bitmask with the same number of set
// bits (Gosper's hack); mask must be non-zero.
func nextSupport(mask uint32) uint32 {
	low := mask & -mask
	r := mask + low
	return (((r ^ mask) >> 2) / low) | r
}

// supportVerdict checks support mask of an n-FF component with every pair
// bound loosened, then tightened, by δ.
func (s *sampleSolver) supportVerdict(n int, mask uint32) verdict {
	m := s.mapSupport(n, mask)
	delta := countBand * s.spec.MaxRange
	if !s.supportFits(m, delta) {
		return supportInfeasible
	}
	if s.supportFits(m, -delta) {
		return supportFeasible
	}
	return supportUndecided
}

// supportFits reports whether the system of the support s.node maps onto
// m variables, with every pair bound shifted by shift, is feasible: the
// support's FFs move within their windows, every other FF stays at 0.
func (s *sampleSolver) supportFits(m int, shift float64) bool {
	// Rows between pinned endpoints are constants: 0 ≤ b + shift.
	for _, r := range s.rows {
		if s.nodeOf(r.l) == diffcon.Origin && s.nodeOf(r.c) == diffcon.Origin &&
			(r.setup+shift < 0 || r.hold+shift < 0) {
			return false
		}
	}
	if s.mode == modeFloating {
		return s.floatFits(m, shift)
	}
	return s.gridFits(m, shift)
}

// nodeOf maps a row endpoint (component index, or −1 outside) to its
// system variable.
func (s *sampleSolver) nodeOf(v int) int {
	if v < 0 {
		return diffcon.Origin
	}
	return s.node[v]
}

// floatFits checks the step-1 system over continuous x ∈ [−τ, τ] with
// Bellman-Ford from a virtual source; node m is the origin.
func (s *sampleSolver) floatFits(m int, shift float64) bool {
	tau := s.spec.MaxRange
	s.fEdges = s.fEdges[:0]
	for _, r := range s.rows {
		l, c := s.nodeOf(r.l), s.nodeOf(r.c)
		if l == diffcon.Origin && c == diffcon.Origin {
			continue // checked by supportFits
		}
		if l == diffcon.Origin {
			l = m
		}
		if c == diffcon.Origin {
			c = m
		}
		// x_l − x_c ≤ setup is edge c → l; x_c − x_l ≤ hold is l → c.
		s.fEdges = append(s.fEdges,
			fEdge{from: c, to: l, w: r.setup + shift},
			fEdge{from: l, to: c, w: r.hold + shift})
	}
	for v := 0; v < m; v++ {
		s.fEdges = append(s.fEdges, fEdge{from: m, to: v, w: tau}, fEdge{from: v, to: m, w: tau})
	}
	s.fDist = s.fDist[:0]
	for v := 0; v <= m; v++ {
		s.fDist = append(s.fDist, 0)
	}
	dist := s.fDist
	// m+1 nodes settle within m rounds; a change in round m+1 is a
	// negative cycle.
	for round := 0; round <= m; round++ {
		changed := false
		for _, e := range s.fEdges {
			if d := dist[e.from] + e.w; d < dist[e.to] {
				dist[e.to] = d
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// gridFits checks the step-2 system over grid indices k ∈ [0, Steps], with
// x = lower + s·k for the support's FFs and x = 0 for pinned ones:
// x_i − x_j ≤ b becomes k_i − k_j ≤ floor((b − lowerᵢ + lowerⱼ)/s).
func (s *sampleSolver) gridFits(m int, shift float64) bool {
	sys := &s.isys
	sys.Reset(m)
	for _, r := range s.rows {
		l, c := s.nodeOf(r.l), s.nodeOf(r.c)
		if l == diffcon.Origin && c == diffcon.Origin {
			continue // checked by supportFits
		}
		lowL, lowC := s.supportLower(r.l, l), s.supportLower(r.c, c)
		sys.Add(l, c, s.gridBound(r.setup+shift-lowL+lowC))
		sys.Add(c, l, s.gridBound(r.hold+shift-lowC+lowL))
	}
	for v := 0; v < m; v++ {
		sys.AddUpper(v, int64(s.spec.Steps))
		sys.AddLower(v, 0)
	}
	return s.isv.Feasible(sys)
}

// supportLower is the window lower bound of component index v when it is
// in the support (node ≠ Origin), and 0 for a pinned FF.
func (s *sampleSolver) supportLower(v, node int) float64 {
	if node == diffcon.Origin {
		return 0
	}
	return s.lower[s.comp[v]]
}

// gridBound converts a real bound on x differences into grid steps,
// clamped to ±(Steps+1): grid indices differ by at most Steps, so a bound
// past either end binds no differently, and the clamp keeps a huge bound
// from overflowing the conversion.
func (s *sampleSolver) gridBound(b float64) int64 {
	lim := float64(s.spec.Steps + 1)
	return int64(math.Max(-lim, math.Min(lim, math.Floor(b/s.spec.Step()))))
}
