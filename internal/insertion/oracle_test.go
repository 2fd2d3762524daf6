package insertion

import (
	"math"

	"repro/internal/lp"
	"repro/internal/milp"
)

// The two-ILP oracle: the paper's per-component repair, the minimum-count
// ILP (15) and then the concentration ILP (19) under its count, solved by
// branch-and-bound. The flow never runs it. CheckComponentCounts,
// FuzzComponentCount and the plan equivalence harness check the
// combinatorial repair (countMin, project) against it; whole flows run
// through it by the Config.repair seam (ForceMILP).

// milpRoute is the two-ILP scratch: a resettable problem and
// branch-and-bound arena, rebuilt for every component.
type milpRoute struct {
	prob  *milp.Problem
	arena milp.Arena
	xVar  []int
	cVar  []int
	csum  []lp.Term
	// concFails counts failed concentration solves (the route then keeps
	// the count solve's values), on which the equivalence checks fail.
	concFails int
	// observe, when set, sees every SolveArena result in solve order.
	observe func(milp.Solution, error)
}

func newMILPRoute(observe func(milp.Solution, error)) *milpRoute {
	return &milpRoute{prob: milp.NewProblem(), observe: observe}
}

// solveArena solves the route's problem and shows the result to observe.
func (m *milpRoute) solveArena() (milp.Solution, error) {
	sol, err := m.prob.SolveArena(&m.arena, milp.Options{})
	if m.observe != nil {
		m.observe(sol, err)
	}
	return sol, err
}

// milpRepair returns a repairFunc that solves each component on a fresh
// milpRoute, so a flow whose passes run on several workers can repair
// through it; observe, when set, sees every solve.
func milpRepair(observe func(milp.Solution, error)) repairFunc {
	return func(s *sampleSolver, comp []int) (int, bool) {
		return newMILPRoute(observe).solveComponent(s, comp)
	}
}

// solveComponent builds and solves the two ILPs for one component: the
// minimum-count ILP, then the concentration ILP under its count. It has
// the contract of a repairFunc: s.rows must hold comp's rows (walkRows).
func (m *milpRoute) solveComponent(s *sampleSolver, comp []int) (int, bool) {
	xVar, cVar := m.buildProblem(s, comp)
	solA, err := m.solveArena()
	if err != nil || solA.Status != lp.Optimal {
		return 0, false
	}
	nk := int(math.Round(solA.Obj))
	if nk == 0 {
		// Reachable, but only for hairline violations: every component
		// contains an endpoint of a violated pair (components grow from
		// violated-pair seeds through interacting edges), and that pair's
		// row forces a non-zero tuning — yet when the violated bound is
		// within the solver's tolerances of zero (the LP's feasibility
		// tolerance, or a usage binary within the integrality tolerance of
		// 0, which lets x reach τ·1e-6), no usage binary is charged. The
		// ILP accepts it as zero tunings, where the exact repair charges
		// one buffer (TestSolveComponentHairlineViolation).
		return 0, true
	}
	// Keep step-A tuning values: solA.X aliases arena memory that the
	// concentration solve below reuses.
	s.xSol = s.xSol[:0]
	for idx := range comp {
		s.xSol = append(s.xSol, solA.X[xVar[idx]])
	}
	// Skipped under the NoConcentration ablation; a failed concentration
	// solve keeps the count solve's values.
	if s.concentration && !m.concentrate(s, comp, xVar, cVar, nk) {
		m.concFails++
	}
	s.emit(comp)
	return nk, true
}

// concentrate solves the concentration ILP: the component's constraints
// plus Σc ≤ nk, minimizing Σ|x − center|. Rather than rebuilding, it
// mutates the count problem in place: the count objective moves into a row
// cap and |x − center| terms take over the objective. On success the
// tuning values land in s.xSol; on failure s.xSol is left as it was.
func (m *milpRoute) concentrate(s *sampleSolver, comp, xVar, cVar []int, nk int) bool {
	prob := m.prob
	m.csum = m.csum[:0]
	for _, c := range cVar {
		prob.LP.SetObj(c, 0)
		m.csum = append(m.csum, lp.T(c, 1))
	}
	prob.AddRow(lp.LE, float64(nk), m.csum...)
	for idx, ff := range comp {
		prob.AbsLinearization(xVar[idx], s.center[ff], 1, "t")
	}
	sol, err := m.solveArena()
	if err != nil || sol.Status != lp.Optimal {
		return false
	}
	s.xSol = s.xSol[:0]
	for idx := range comp {
		s.xSol = append(s.xSol, sol.X[xVar[idx]])
	}
	return true
}

// buildProblem assembles the component MILP shared by both objectives into
// the route's resettable problem: variables x (tuning) and c (usage
// binaries with the Γ=τ indicator), all setup/hold rows touching the
// component (s.rows, which walkRows must have listed for comp), and — in
// step 2 — the discrete grid coupling x = lower + s·k. The returned slices
// alias route scratch.
func (m *milpRoute) buildProblem(s *sampleSolver, comp []int) (xVar, cVar []int) {
	tau := s.spec.MaxRange
	prob := m.prob
	prob.Reset()
	m.xVar = m.xVar[:0]
	m.cVar = m.cVar[:0]
	for _, ff := range comp {
		lo, hi := s.windowOf(ff)
		x := prob.AddVar(milp.Continuous, lo, hi, 0, "x")
		c := prob.AddVar(milp.Binary, 0, 1, 1, "c")
		m.xVar = append(m.xVar, x)
		m.cVar = append(m.cVar, c)
		prob.Indicator(x, c, tau)
		if s.mode == modeFixed {
			// x − s·k = lower, k ∈ [0, Steps] integer.
			k := prob.AddVar(milp.Integer, 0, float64(s.spec.Steps), 0, "k")
			prob.AddRow(lp.EQ, s.lower[ff], lp.T(x, 1), lp.T(k, -s.spec.Step()))
		}
	}
	xVar, cVar = m.xVar, m.cVar
	for _, r := range s.rows {
		switch {
		case r.l >= 0 && r.c >= 0:
			// setup: x_l − x_c ≤ setupB; hold: x_c − x_l ≤ holdB.
			prob.AddRow(lp.LE, r.setup, lp.T(xVar[r.l], 1), lp.T(xVar[r.c], -1))
			prob.AddRow(lp.LE, r.hold, lp.T(xVar[r.c], 1), lp.T(xVar[r.l], -1))
		case r.l >= 0:
			// Capture fixed at 0.
			prob.AddRow(lp.LE, r.setup, lp.T(xVar[r.l], 1))
			prob.AddRow(lp.LE, r.hold, lp.T(xVar[r.l], -1))
		default:
			// Launch fixed at 0.
			prob.AddRow(lp.LE, r.setup, lp.T(xVar[r.c], -1))
			prob.AddRow(lp.LE, r.hold, lp.T(xVar[r.c], 1))
		}
	}
	return xVar, cVar
}

// windowOf returns the tuning window [lo, hi] of a buffer at ff.
func (s *sampleSolver) windowOf(ff int) (lo, hi float64) {
	tau := s.spec.MaxRange
	if s.mode == modeFloating {
		// Floating lower bound r with r ≤ 0 ≤ r+τ and x ∈ [r, r+τ]
		// collapses to x ∈ [−τ, τ] (see DESIGN.md).
		return -tau, tau
	}
	return s.lower[ff], s.lower[ff] + tau
}

// The δ band: the oracle's classifier of hairline components. The count
// ILP accepts points within its tolerances: a usage binary within the
// integrality tolerance (1e-6) of 0 counts as unused although it lets |x|
// reach τ·1e-6, and a grid index within 1e-6 of an integer counts as
// integral (an s·1e-6 ≤ τ·1e-6 shift in x). With two endpoints per row,
// the ILP can call a support feasible that misses a row by up to 2τ·1e-6
// plus the LP tolerance. So the band checks a support twice, with every
// pair bound shifted by ∓δ, δ = countBand·τ: a support whose tightened
// system is feasible is feasible to the ILP too, one whose loosened system
// is infeasible is infeasible to it, and anything between is undecided.
// Where the band decides, the exact repair and the ILP must agree; where it
// does not, the component is a hairline on which they may differ.

// countBand is δ/τ: twice the ILP's worst tolerance slack per row.
const countBand = 4e-6

// verdict classifies one support under the band.
type verdict int8

const (
	verdictInfeasible verdict = iota // loosened system infeasible
	verdictUndecided                 // only the loosened system is feasible
	verdictFeasible                  // tightened system feasible
)

// bandVerdict checks support mask of an n-FF component with every pair
// bound loosened, then tightened, by δ.
func (s *sampleSolver) bandVerdict(n int, mask uint32) verdict {
	delta := countBand * s.spec.MaxRange
	if !s.shiftedFeasible(n, mask, delta) {
		return verdictInfeasible
	}
	if s.shiftedFeasible(n, mask, -delta) {
		return verdictFeasible
	}
	return verdictUndecided
}

// shiftedFeasible is supportFeasible with every row bound shifted by shift.
func (s *sampleSolver) shiftedFeasible(n int, mask uint32, shift float64) bool {
	saved := append([]compRow(nil), s.rows...)
	for i := range s.rows {
		s.rows[i].setup += shift
		s.rows[i].hold += shift
	}
	ok := s.supportFeasible(n, mask)
	copy(s.rows, saved)
	return ok
}

// bandClass is the band's view of a component.
type bandClass int8

const (
	bandInfeasible bandClass = iota // the full support is robustly infeasible
	bandHairline                    // the count is undecided
	bandCount                       // the count is decided, but a size-nk support is undecided
	bandClean                       // count and every size-nk support decided
)

// bandClassify classifies the component whose rows walkRows listed (n FFs)
// under the band, enumerating supports as countMin does, and returns the
// count the band decides (bandCount and bandClean).
func (s *sampleSolver) bandClassify(n int) (bandClass, int) {
	full := uint32(1)<<n - 1
	switch s.bandVerdict(n, full) {
	case verdictInfeasible:
		return bandInfeasible, 0
	case verdictUndecided:
		return bandHairline, 0
	}
	for k := 0; k <= n; k++ {
		open, nk := false, -1
		for mask := uint32(1)<<k - 1; mask <= full; mask = nextSupport(mask) {
			switch s.bandVerdict(n, mask) {
			case verdictFeasible:
				nk = k
			case verdictUndecided:
				open = true
			}
			if mask == 0 {
				break
			}
		}
		switch {
		case nk < 0 && open:
			return bandHairline, 0
		case nk >= 0 && open:
			return bandCount, nk
		case nk >= 0:
			return bandClean, nk
		}
	}
	return bandHairline, 0 // unreachable: the full support is feasible
}
