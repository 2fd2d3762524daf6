package insertion

import (
	"math"

	"repro/internal/diffcon"
	"repro/internal/lp"
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
	// Truncated counts closures cut at MaxComponent and components left
	// unrepaired because they are too large to enumerate (countMin).
	Truncated int `json:"truncated,omitempty"`
	// NK is the minimum tuning count (summed over components).
	NK int `json:"nk,omitempty"`
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
// the support-enumeration systems, the projection LP and its workspace,
// and epoch-stamped index maps, so solving a component in steady state
// reuses worker-owned memory and performs no heap allocations.
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
	// repair, when set, replaces solveComponent's combinatorial repair
	// (Config.repair).
	repair repairFunc

	adj  [][]int       // FF id → pair indices (from Graph.PairAdjacency)
	ends []timing.Ends // pair endpoints (from Graph.PairEnds)

	// per-sample scratch
	setupB  []float64
	holdB   []float64
	active  []bool
	compID  []int
	queue   []int
	compBuf []int // active FFs grouped by component (flattened)
	compOff []int // start offset of each component in compBuf
	tuned   []Tuning
	xSol    []float64 // the component's tuning values, for emit

	// per-component count scratch (walkRows, countMin, supportPoint): the
	// component being solved, its rows, and the support systems' working
	// memory.
	comp   []int
	rows   []compRow
	node   []int
	fEdges []fEdge
	fDist  []float64
	isys   diffcon.IntSystem
	isv    diffcon.IntSolver
	kSol   []int64

	// per-component projection scratch (project): where countMin's size-nk
	// enumeration stopped, the support's variables (supp: component
	// indices), their boxes and centers, the current and best projections
	// over the component, and the nk ≥ 2 LP.
	nkMask             uint32
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
		ends:       g.PairEnds(),
		setupB:     make([]float64, len(g.Pairs)),
		holdB:      make([]float64, len(g.Pairs)),
		active:     make([]bool, g.NS),
		compID:     make([]int, g.NS),
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
	s.repair = cfg.repair
	if allowed == nil {
		allowed = s.allTrue
	}
	if center == nil {
		center = s.zeroCenter
	}
	s.allowed, s.lower, s.center = allowed, lower, center
}

// solve repairs one chip: it realizes the constraint bounds, grows
// violation components, and solves each (solveComponent). A chip whose
// certificate shows it meets T with zero tuning (a materialized
// population's chips carry one) is feasible at once, with no bound loop.
// The returned outcome's tuned slice aliases solver scratch (see
// SampleOutcome).
//
//contract:allocfree
func (s *sampleSolver) solve(ch *timing.Chip) SampleOutcome {
	g := s.g
	if pass, decided := g.ZeroAt(ch, s.T); decided && pass {
		return SampleOutcome{Feasible: true}
	}
	// 1. Realize constraint bounds; find violations. The expressions are
	// Graph.SetupBound's and HoldBound's, operation for operation.
	violated := false
	skew := g.Skew
	setupB, holdB := s.setupB[:len(s.ends)], s.holdB[:len(s.ends)]
	dmax, dmin := ch.DMax[:len(s.ends)], ch.DMin[:len(s.ends)]
	for p, e := range s.ends {
		skl, skc := skew[e.Launch], skew[e.Capture]
		setupB[p] = s.T - ch.Setup[e.Capture] - dmax[p] + skc - skl
		holdB[p] = dmin[p] - ch.Hold[e.Capture] + skl - skc
		if setupB[p] < 0 || holdB[p] < 0 {
			if e.Launch == e.Capture {
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
	for p, e := range s.ends {
		if setupB[p] < 0 || holdB[p] < 0 {
			l, c := int(e.Launch), int(e.Capture)
			if !s.allowed[l] && !s.allowed[c] {
				return SampleOutcome{}
			}
			mark(l)
			mark(c)
		}
	}
	// 3. Closure: pull in neighbor FFs that may need to move when the seed
	// FFs are tuned. A passive neighbor (x=0) is only ever forced to move
	// across a *setup-tight* edge (bound < τ): a single moving endpoint
	// cannot violate a bound ≥ τ because |x| ≤ τ, and hold-repair chains
	// do not propagate at hold-safe skews. Constraints with larger bounds
	// still enter the component's rows (with the passive side fixed at 0),
	// so the restriction is conservative — it can cost an extra buffer in
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
			e := s.ends[p]
			if e.Launch == e.Capture {
				continue
			}
			v := int(e.Launch+e.Capture) - u
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
				e := s.ends[p]
				v := int(e.Launch+e.Capture) - u
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
	out := SampleOutcome{Feasible: true, Truncated: truncated}
	for c := range s.compOff {
		end := len(s.compBuf)
		if c+1 < len(s.compOff) {
			end = s.compOff[c+1]
		}
		nk, ok, capped := s.solveComponent(s.compBuf[s.compOff[c]:end])
		if !ok {
			if capped {
				truncated++
			}
			return SampleOutcome{Truncated: truncated}
		}
		out.NK += nk
	}
	out.Tuned = s.tuned
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

// repairFunc repairs one component in place of solveComponent's
// combinatorial repair: s.rows holds comp's rows (walkRows), the tunings
// go to s.tuned, and it returns the count and whether comp was repaired.
type repairFunc func(s *sampleSolver, comp []int) (nk int, ok bool)

// solveComponent repairs one component without an ILP, appending the
// resulting tunings to s.tuned, and returns the minimum count nk and
// whether comp was repaired; capped marks a component left unrepaired
// because it is too large to enumerate. countMin decides the count by
// support enumeration, and project replaces the concentration ILP by
// projecting the centers onto every feasible support of size nk. The
// NoConcentration ablation, and a component whose projection fails, emit
// the first feasible size-nk support's Bellman-Ford point instead
// (DESIGN.md, "Combinatorial repair").
//
//contract:allocfree
func (s *sampleSolver) solveComponent(comp []int) (nk int, ok, capped bool) {
	s.walkRows(comp)
	if s.repair != nil {
		nk, ok = s.repair(s, comp)
		return nk, ok, false
	}
	n := len(comp)
	if nk, ok, capped = s.countMin(n); !ok {
		return 0, false, capped
	}
	if !s.concentration || !s.project(n) {
		s.supportPoint(n, s.nkMask)
	}
	s.emit(comp)
	return nk, true, false
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
// component, in adjacency order, and stamps each
// component FF's index into posIdx for the current epoch. Self-loop pairs
// are skipped: x cancels in them.
func (s *sampleSolver) walkRows(comp []int) {
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
			e := s.ends[p]
			if !s.interacting(p) || e.Launch == e.Capture {
				continue
			}
			l, c := -1, -1
			if s.posEpoch[e.Launch] == ep {
				l = s.posIdx[e.Launch]
			}
			if s.posEpoch[e.Capture] == ep {
				c = s.posIdx[e.Capture]
			}
			s.rows = append(s.rows, compRow{l: l, c: c, setup: s.setupB[p], hold: s.holdB[p]})
		}
	}
}
