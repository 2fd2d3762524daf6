package insertion

import (
	"math"

	"repro/internal/diffcon"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/timing"
)

// Tuning is one buffer adjustment in one sample: FF carries a buffer tuned
// to Val (ps). The JSON form is part of the shard-pass wire contract
// (float64 survives encoding/json round trips bit-exactly).
type Tuning struct {
	FF  int     `json:"ff"`
	Val float64 `json:"val"`
}

// SampleOutcome is the per-sample result of the minimum tuning count and
// the concentration step — the unit the sharded sample loop ships between
// processes: a pass over any k-range is a k-indexed SampleOutcome slice,
// and merging ranges is pure placement, so the reduced statistics are
// byte-identical no matter where samples were solved.
//
// Inside a pass, Tuned aliases solver-owned scratch until the collecting
// loop copies it; every SampleOutcome that escapes the package owns its
// Tuned slice.
type SampleOutcome struct {
	// Feasible reports a repairable (or violation-free) sample.
	Feasible bool `json:"feasible,omitempty"`
	// SelfLoop marks a violated self-loop pair (unfixable by tuning).
	SelfLoop bool `json:"self_loop,omitempty"`
	// Truncated counts closure components cut at MaxComponent.
	Truncated int `json:"truncated,omitempty"`
	// NK is the minimum tuning count (summed over components).
	NK int `json:"nk,omitempty"`
	// MILP counts the components sent to the two-ILP fallback route
	// (solveComponentMILP) instead of support enumeration and projection,
	// repaired or not.
	MILP int `json:"milp,omitempty"`
	// Tuned lists the non-zero tuning assignments.
	Tuned []Tuning `json:"tuned,omitempty"`
}

// solverMode selects the step-1 (floating continuous) or step-2 (fixed
// discrete) formulation.
type solverMode int

const (
	modeFloating solverMode = iota // step 1: x ∈ [−τ, τ] continuous
	modeFixed                      // step 2: x ∈ {lowerᵢ + k·s} discrete
)

// sampleSolver carries the per-pass configuration plus per-worker scratch:
// the support-enumeration systems, the projection LP and its workspace, a
// resettable MILP problem and branch-and-bound arena for the fallback
// route, and epoch-stamped index maps, so solving a component in steady
// state reuses worker-owned memory and performs no heap allocations.
//
// Ownership: a solver is single-goroutine state. Workers obtain one through
// Runner.checkout — which hands out exclusive ownership until release — and
// the graph-sized scratch survives across passes and across Run calls; only
// the cheap per-pass configuration (configure) changes between checkouts.
type sampleSolver struct {
	g    *timing.Graph
	T    float64
	spec BufferSpec
	mode solverMode

	// allowed[ff] reports whether ff may carry a buffer (step 2 restricts
	// to the pruned survivor set; step 1 allows every FF).
	allowed []bool
	// lower[ff] is the fixed window lower bound (step 2 only; grid-aligned).
	lower []float64
	// center[ff] is the concentration target: 0 in step 1, the average
	// tuning value in step 2 (paper (15) vs (19)), grid-snapped.
	center []float64

	maxComp       int
	concentration bool
	// forceMILP sends every component down the two-ILP route (the
	// reference flow of the equivalence tests; Config.forceMILP).
	forceMILP bool

	adj [][]int // FF id → pair indices (from Graph.PairAdjacency)

	// per-sample scratch
	setupB  []float64
	holdB   []float64
	active  []bool
	compID  []int
	queue   []int
	compBuf []int // active FFs grouped by component (flattened)
	compOff []int // start offset of each component in compBuf
	tuned   []Tuning
	milp    int // components of the current sample the MILP route took

	// per-component scratch of the two-ILP route (solveComponentMILP)
	prob  *milp.Problem // resettable; rebuilt for every component
	arena milp.Arena
	xVar  []int
	cVar  []int
	csum  []lp.Term
	xSol  []float64 // per-comp tuning values surviving across the 2nd solve

	// per-component count scratch (walkRows, countMin): the component
	// being solved, its rows, and the support systems' working memory.
	comp   []int
	rows   []compRow
	node   []int
	fEdges []fEdge
	fDist  []float64
	isys   diffcon.IntSystem
	isv    diffcon.IntSolver

	// per-component projection scratch (project): where countMin's size-nk
	// enumeration stopped, the support's variables (supp: component
	// indices), their boxes and centers, the current and best projections
	// over the component, and the nk ≥ 2 LP.
	nkMask             uint32
	nkOpen             bool
	nkBudget           int
	supp               []int
	boxLo, boxHi, boxC []float64
	xCur, xBest        []float64
	lpProb             lp.Problem
	lpWS               lp.Workspace

	// epoch-stamped maps replacing per-build allocations: posIdx[ff] is the
	// index of ff in the current component iff posEpoch[ff] == epoch, and a
	// pair's rows are already added iff seenEpoch[p] == epoch.
	epoch     uint64
	posIdx    []int
	posEpoch  []uint64
	seenEpoch []uint64

	// allTrue / zeroCenter are the default pass parameters (every FF
	// allowed, concentrate toward 0), built once with the scratch so
	// configure(nil, …, nil) needs no allocation. Read-only after init.
	allTrue    []bool
	zeroCenter []float64
}

// newSolverScratch allocates the graph-sized solver state shared by every
// pass configuration. adj is the Runner's shared pair adjacency (read-only).
func newSolverScratch(g *timing.Graph, adj [][]int) *sampleSolver {
	s := &sampleSolver{
		g:          g,
		adj:        adj,
		setupB:     make([]float64, len(g.Pairs)),
		holdB:      make([]float64, len(g.Pairs)),
		active:     make([]bool, g.NS),
		compID:     make([]int, g.NS),
		prob:       milp.NewProblem(),
		posIdx:     make([]int, g.NS),
		posEpoch:   make([]uint64, g.NS),
		seenEpoch:  make([]uint64, len(g.Pairs)),
		allTrue:    make([]bool, g.NS),
		zeroCenter: make([]float64, g.NS),
	}
	for i := range s.allTrue {
		s.allTrue[i] = true
	}
	return s
}

// configure points the solver at one pass's parameters. allowed/center may
// be nil (every FF allowed, zero concentration targets); lower may be nil
// in modeFloating. The slices are borrowed read-only for the duration of
// the checkout — they are shared by every solver of the pass.
func (s *sampleSolver) configure(cfg Config, mode solverMode, allowed []bool, lower, center []float64) {
	s.T = cfg.T
	s.spec = cfg.Spec
	s.mode = mode
	s.maxComp = cfg.MaxComponent
	s.concentration = !cfg.NoConcentration
	s.forceMILP = cfg.forceMILP
	if allowed == nil {
		allowed = s.allTrue
	}
	if center == nil {
		center = s.zeroCenter
	}
	s.allowed, s.lower, s.center = allowed, lower, center
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

// solve repairs one chip: it realizes the constraint bounds, grows
// violation components, and solves each (solveComponent). The returned
// outcome's tuned slice aliases solver scratch (see SampleOutcome).
//
//contract:allocfree
func (s *sampleSolver) solve(ch *timing.Chip) SampleOutcome {
	g := s.g
	// 1. Realize constraint bounds; find violations.
	violated := false
	for p := range g.Pairs {
		s.setupB[p] = g.SetupBound(ch, p, s.T)
		s.holdB[p] = g.HoldBound(ch, p)
		if s.setupB[p] < 0 || s.holdB[p] < 0 {
			pr := &g.Pairs[p]
			if pr.Launch == pr.Capture {
				// Self-loop: x cancels; unfixable by clock tuning.
				return SampleOutcome{SelfLoop: true}
			}
			violated = true
		}
	}
	if !violated {
		return SampleOutcome{Feasible: true}
	}
	// 2. Seed active set with allowed endpoints of violated pairs; a
	// violated pair with no allowed endpoint is unfixable.
	for i := range s.active {
		s.active[i] = false
	}
	s.queue = s.queue[:0]
	//lint:ignore contract:allocfree non-escaping closure, stack-allocated: the AllocsPerRun test pins solve at zero
	mark := func(ff int) {
		if s.allowed[ff] && !s.active[ff] {
			s.active[ff] = true
			s.queue = append(s.queue, ff)
		}
	}
	for p := range g.Pairs {
		if s.setupB[p] < 0 || s.holdB[p] < 0 {
			pr := &g.Pairs[p]
			if !s.allowed[pr.Launch] && !s.allowed[pr.Capture] {
				return SampleOutcome{}
			}
			mark(pr.Launch)
			mark(pr.Capture)
		}
	}
	// 3. Closure: pull in neighbor FFs that may need to move when the seed
	// FFs are tuned. A passive neighbor (x=0) is only ever forced to move
	// across a *setup-tight* edge (bound < τ): a single moving endpoint
	// cannot violate a bound ≥ τ because |x| ≤ τ, and hold-repair chains
	// do not propagate at hold-safe skews. Constraints with larger bounds
	// still enter the ILP as rows (with the passive side fixed at 0), so
	// the restriction is conservative — it can cost an extra buffer in
	// rare cascades but never produces an infeasible-marked sample that a
	// wider closure could fix... except through the MaxComponent cap,
	// which is counted in Stats.TruncatedComps.
	truncated := 0
	activeCount := len(s.queue)
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		for _, p := range s.adj[u] {
			if !s.expands(p) {
				continue
			}
			pr := &g.Pairs[p]
			v := pr.Launch + pr.Capture - u
			if pr.Launch == pr.Capture {
				continue
			}
			if !s.allowed[v] || s.active[v] {
				continue
			}
			if activeCount >= s.maxComp {
				truncated++
				continue
			}
			s.active[v] = true
			s.queue = append(s.queue, v)
			activeCount++
		}
	}
	// 4. Component split over active FFs via interacting pairs, flattened
	// into compBuf with per-component offsets in compOff.
	for i := range s.compID {
		s.compID[i] = -1
	}
	s.compBuf = s.compBuf[:0]
	s.compOff = s.compOff[:0]
	for _, seed := range s.queue {
		if s.compID[seed] != -1 {
			continue
		}
		id := len(s.compOff)
		start := len(s.compBuf)
		s.compOff = append(s.compOff, start)
		s.compBuf = append(s.compBuf, seed)
		s.compID[seed] = id
		for ci := start; ci < len(s.compBuf); ci++ {
			u := s.compBuf[ci]
			for _, p := range s.adj[u] {
				if !s.interacting(p) {
					continue
				}
				pr := &g.Pairs[p]
				v := pr.Launch + pr.Capture - u
				if v == u || !s.active[v] || s.compID[v] != -1 {
					continue
				}
				s.compID[v] = id
				s.compBuf = append(s.compBuf, v)
			}
		}
	}
	// 5. Solve each component.
	s.tuned = s.tuned[:0]
	s.milp = 0
	out := SampleOutcome{Feasible: true, Truncated: truncated}
	for c := range s.compOff {
		end := len(s.compBuf)
		if c+1 < len(s.compOff) {
			end = s.compOff[c+1]
		}
		nk, ok := s.solveComponent(s.compBuf[s.compOff[c]:end])
		if !ok {
			return SampleOutcome{Truncated: truncated, MILP: s.milp}
		}
		out.NK += nk
	}
	out.Tuned = s.tuned
	out.MILP = s.milp
	return out
}

// interacting reports whether pair p can constrain any feasible tuning
// assignment (bound below the maximum relative movement 2τ), or is
// violated outright. Used for component merging and row inclusion.
func (s *sampleSolver) interacting(p int) bool {
	lim := 2 * s.spec.MaxRange
	return s.setupB[p] < lim || s.holdB[p] < lim
}

// expands reports whether pair p propagates the active-set closure: only
// setup-tight or violated edges do (see the closure comment in solve).
func (s *sampleSolver) expands(p int) bool {
	return s.setupB[p] < s.spec.MaxRange || s.holdB[p] < 0
}

// solveComponent repairs one component, appending the resulting tunings to
// s.tuned, and returns the minimum count nk and feasibility. No ILP runs on
// the common path: countMin decides the count by support enumeration, and
// project replaces the concentration ILP by projecting the centers onto
// every robustly feasible support of size nk. Every case either leaves
// open — an undecided or oversized component, an infeasible full support,
// the NoConcentration ablation (which keeps the count solve's tuning
// values), an undecided size-nk support, a failed LP or a non-integral grid
// index — runs the two-ILP solveComponentMILP instead. Both routes reach
// the same objective; where supports tie they may emit different tunings
// (DESIGN.md, "Combinatorial repair"). A decided nk is at least 1 (see
// countMin); zero tunings come only from the MILP's hairline rule.
func (s *sampleSolver) solveComponent(comp []int) (int, bool) {
	s.walkRows(comp)
	if !s.concentration || s.forceMILP {
		return s.solveComponentMILP(comp)
	}
	nk, decided := s.countMin(len(comp))
	if !decided || !s.project(len(comp)) {
		return s.solveComponentMILP(comp)
	}
	s.emit(comp)
	return nk, true
}

// solveComponentMILP builds and solves the two ILPs for one component: the
// minimum-count ILP, then the concentration ILP under its count. It is the
// fallback and oracle of solveComponent, with the same contract, and counts
// itself in s.milp; s.rows must hold comp's rows (walkRows).
func (s *sampleSolver) solveComponentMILP(comp []int) (int, bool) {
	s.milp++
	xVar, cVar := s.buildProblem(comp)
	solA, err := s.prob.SolveArena(&s.arena, milp.Options{})
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
		// 0, which lets x reach τ·1e-6), no usage binary is charged. Such a
		// sample needs no physically meaningful repair; accept it as zero
		// tunings. See TestSolveComponentHairlineViolation.
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
	if s.concentration {
		s.concentrate(comp, xVar, cVar, nk)
	}
	s.emit(comp)
	return nk, true
}

// concentrate solves the concentration ILP: the component's constraints
// plus Σc ≤ nk, minimizing Σ|x − center|. Rather than rebuilding, it
// mutates the count problem in place: the count objective moves into a row
// cap and |x − center| terms take over the objective. On success the
// tuning values land in s.xSol; on failure s.xSol is left as it was.
func (s *sampleSolver) concentrate(comp, xVar, cVar []int, nk int) bool {
	prob := s.prob
	s.csum = s.csum[:0]
	for _, c := range cVar {
		prob.LP.SetObj(c, 0)
		s.csum = append(s.csum, lp.T(c, 1))
	}
	prob.AddRow(lp.LE, float64(nk), s.csum...)
	for idx, ff := range comp {
		prob.AbsLinearization(xVar[idx], s.center[ff], 1, "t")
	}
	sol, err := prob.SolveArena(&s.arena, milp.Options{})
	if err != nil || sol.Status != lp.Optimal {
		return false
	}
	s.xSol = s.xSol[:0]
	for idx := range comp {
		s.xSol = append(s.xSol, sol.X[xVar[idx]])
	}
	return true
}

// emit appends the component's non-zero tuning values in s.xSol to s.tuned,
// snapped exactly to the grid in step 2.
func (s *sampleSolver) emit(comp []int) {
	for idx, ff := range comp {
		v := s.xSol[idx]
		if s.mode == modeFixed {
			// Snap to the grid exactly.
			step := s.spec.Step()
			k := math.Round((v - s.lower[ff]) / step)
			v = s.lower[ff] + k*step
		}
		if math.Abs(v) > 1e-7 {
			s.tuned = append(s.tuned, Tuning{FF: ff, Val: v})
		}
	}
}

// compRow is one interacting pair touching a component: setup
// x_l − x_c ≤ setup and hold x_c − x_l ≤ hold, with l and c the endpoints'
// indices in the component, or −1 for an endpoint outside it (fixed at 0).
type compRow struct {
	l, c        int
	setup, hold float64
}

// walkRows lists into s.rows every interacting pair touching the
// component, in adjacency order (the MILP's row order), and stamps each
// component FF's index into posIdx for the current epoch. Self-loop pairs
// are skipped: x cancels in them.
func (s *sampleSolver) walkRows(comp []int) {
	g := s.g
	s.epoch++
	ep := s.epoch
	s.comp = comp
	for idx, ff := range comp {
		s.posIdx[ff] = idx
		s.posEpoch[ff] = ep
	}
	s.rows = s.rows[:0]
	for _, ff := range comp {
		for _, p := range s.adj[ff] {
			if s.seenEpoch[p] == ep {
				continue
			}
			s.seenEpoch[p] = ep
			pr := &g.Pairs[p]
			if !s.interacting(p) || pr.Launch == pr.Capture {
				continue
			}
			l, c := -1, -1
			if s.posEpoch[pr.Launch] == ep {
				l = s.posIdx[pr.Launch]
			}
			if s.posEpoch[pr.Capture] == ep {
				c = s.posIdx[pr.Capture]
			}
			s.rows = append(s.rows, compRow{l: l, c: c, setup: s.setupB[p], hold: s.holdB[p]})
		}
	}
}

// buildProblem assembles the component MILP shared by both objectives into
// the solver's resettable problem: variables x (tuning) and c (usage
// binaries with the Γ=τ indicator), all setup/hold rows touching the
// component (s.rows, which walkRows must have listed for comp), and — in
// step 2 — the discrete grid coupling x = lower + s·k. The returned slices
// alias solver scratch.
func (s *sampleSolver) buildProblem(comp []int) (xVar, cVar []int) {
	tau := s.spec.MaxRange
	prob := s.prob
	prob.Reset()
	s.xVar = s.xVar[:0]
	s.cVar = s.cVar[:0]
	for _, ff := range comp {
		lo, hi := s.windowOf(ff)
		x := prob.AddVar(milp.Continuous, lo, hi, 0, "x")
		c := prob.AddVar(milp.Binary, 0, 1, 1, "c")
		s.xVar = append(s.xVar, x)
		s.cVar = append(s.cVar, c)
		prob.Indicator(x, c, tau)
		if s.mode == modeFixed {
			// x − s·k = lower, k ∈ [0, Steps] integer.
			k := prob.AddVar(milp.Integer, 0, float64(s.spec.Steps), 0, "k")
			prob.AddRow(lp.EQ, s.lower[ff], lp.T(x, 1), lp.T(k, -s.spec.Step()))
		}
	}
	xVar, cVar = s.xVar, s.cVar
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
