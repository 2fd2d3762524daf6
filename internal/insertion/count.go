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
// Every check is exact: the realized bounds, with no tolerance band. A
// hairline violation (a bound a hair below zero) therefore costs a buffer
// like any other; emit drops its vanishing tuning under its 1e-7 ps floor.

const (
	// maxCountFFs caps the components countMin enumerates (the support is
	// a bitmask); a larger one is left unrepaired and counted as
	// truncated. The presets' components have at most 8 FFs.
	maxCountFFs = 16
	// maxCountSupports caps the supports one countMin call checks.
	maxCountSupports = 1 << 12
)

// fEdge is one edge of the float constraint graph: x_to − x_from ≤ w.
type fEdge struct {
	from, to int
	w        float64
}

// countMin decides the minimum tuning count of the component whose rows
// walkRows just listed (n FFs). Supports are enumerated by size 0, 1, 2, …
// and, within a size, in increasing bitmask order; nk is the size of the
// first feasible one. It reports ok = false when the full support is
// infeasible (no tuning repairs the component), and capped = true, with ok
// = false, for a component over maxCountFFs or one whose count
// maxCountSupports checks leave open. On a decision it records where the
// size-nk enumeration stopped (nkMask, nkBudget), so project continues it
// instead of starting over.
//
// It decides nk = 0 only on a component with no violated row, which solve
// never builds: every component holds an endpoint of a violated pair.
//
//contract:allocfree
func (s *sampleSolver) countMin(n int) (nk int, ok, capped bool) {
	if n > maxCountFFs {
		return 0, false, true
	}
	full := uint32(1)<<n - 1
	// The full support first: when it fails, no smaller one can pass.
	if !s.supportFeasible(n, full) {
		return 0, false, false
	}
	budget := maxCountSupports
	for k := 0; k <= n; k++ {
		for mask := uint32(1)<<k - 1; mask <= full; mask = nextSupport(mask) {
			if budget--; budget < 0 {
				return 0, false, true
			}
			if s.supportFeasible(n, mask) {
				// project resumes the size-k enumeration here.
				s.nkMask, s.nkBudget = mask, budget
				return k, true, false
			}
			if mask == 0 {
				break
			}
		}
	}
	return 0, false, false // unreachable: the full support is feasible
}

// nextSupport returns the next larger bitmask with the same number of set
// bits (Gosper's hack); mask must be non-zero.
func nextSupport(mask uint32) uint32 {
	low := mask & -mask
	r := mask + low
	return (((r ^ mask) >> 2) / low) | r
}

// supportFeasible reports whether support mask of an n-FF component can
// repair it: the support's FFs move within their windows, every other FF
// stays at 0, and every row holds. The check leaves its Bellman-Ford state
// behind (fDist in step 1, isys in step 2) for supportPoint.
func (s *sampleSolver) supportFeasible(n int, mask uint32) bool {
	m := s.mapSupport(n, mask)
	// Rows between pinned endpoints are constants: 0 ≤ b.
	for _, r := range s.rows {
		if s.nodeOf(r.l) == diffcon.Origin && s.nodeOf(r.c) == diffcon.Origin &&
			(r.setup < 0 || r.hold < 0) {
			return false
		}
	}
	if s.mode == modeFloating {
		return s.floatFits(m)
	}
	return s.gridFits(m)
}

// supportPoint writes to s.xSol the Bellman-Ford point of support mask of
// an n-FF component, which must be feasible: each support FF at its
// shortest-path distance from the virtual source less the origin's (in x
// in step 1, in grid indices mapped to x in step 2), pinned FFs at 0.
func (s *sampleSolver) supportPoint(n int, mask uint32) {
	s.supportFeasible(n, mask)
	m := len(s.supp)
	if s.mode == modeFixed {
		s.kSol, _ = s.isv.SolveInto(s.kSol, &s.isys)
	}
	s.xSol = s.xSol[:0]
	for v, node := range s.node {
		x := 0.0
		switch {
		case node == diffcon.Origin:
		case s.mode == modeFloating:
			x = s.fDist[node] - s.fDist[m]
		default:
			x = s.lower[s.comp[v]] + float64(s.kSol[node])*s.spec.Step()
		}
		s.xSol = append(s.xSol, x)
	}
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
func (s *sampleSolver) floatFits(m int) bool {
	tau := s.spec.MaxRange
	s.fEdges = s.fEdges[:0]
	for _, r := range s.rows {
		l, c := s.nodeOf(r.l), s.nodeOf(r.c)
		if l == diffcon.Origin && c == diffcon.Origin {
			continue // checked by supportFeasible
		}
		if l == diffcon.Origin {
			l = m
		}
		if c == diffcon.Origin {
			c = m
		}
		// x_l − x_c ≤ setup is edge c → l; x_c − x_l ≤ hold is l → c.
		s.fEdges = append(s.fEdges,
			fEdge{from: c, to: l, w: r.setup},
			fEdge{from: l, to: c, w: r.hold})
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
func (s *sampleSolver) gridFits(m int) bool {
	sys := &s.isys
	sys.Reset(m)
	for _, r := range s.rows {
		l, c := s.nodeOf(r.l), s.nodeOf(r.c)
		if l == diffcon.Origin && c == diffcon.Origin {
			continue // checked by supportFeasible
		}
		lowL, lowC := s.supportLower(r.l, l), s.supportLower(r.c, c)
		sys.Add(l, c, s.gridBound(r.setup-lowL+lowC))
		sys.Add(c, l, s.gridBound(r.hold-lowC+lowL))
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
