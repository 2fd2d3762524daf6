// Package milp implements a branch-and-bound mixed-integer linear solver on
// top of the simplex in internal/lp. It solves the paper's per-sample ILPs
// of the buffer-insertion flow — binary buffer-usage indicators cᵢ with
// big-M coupling to tuning values, and (in step 2) integer grid positions
// kᵢ of the discrete tuning delays — as the test oracle of the flow's
// exact combinatorial repair: only tests import it. Sub-problems are small
// after the violation-component decomposition, so branch-and-bound with
// most-fractional branching solves them exactly.
//
// Every node relaxation is a cold two-phase lp.SolveWS on one reused
// workspace. The search dives toward the nearer integer and then pops the
// best queued node (see DESIGN.md, "Branch-and-bound"); the incumbent
// objective is recomputed exactly from the snapped integral point.
package milp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
)

// VarKind distinguishes continuous from integral variables.
type VarKind int

// Variable kinds.
const (
	Continuous VarKind = iota
	Integer            // integral within its bounds
	Binary             // shorthand for Integer with bounds [0,1]
)

// Problem is a MILP under construction. It wraps an lp.Problem plus
// integrality marks.
type Problem struct {
	LP   *lp.Problem
	kind []VarKind
}

// NewProblem returns an empty MILP.
func NewProblem() *Problem {
	return &Problem{LP: lp.NewProblem()}
}

// Reset empties the problem for reuse, retaining all allocated capacity in
// both the MILP and its underlying LP.
func (p *Problem) Reset() {
	p.LP.Reset()
	p.kind = p.kind[:0]
}

// AddVar adds a variable of the given kind with bounds [lo,hi] and objective
// coefficient obj. Binary forces bounds to [0,1].
func (p *Problem) AddVar(kind VarKind, lo, hi, obj float64, name string) int {
	if kind == Binary {
		lo, hi = 0, 1
	}
	v := p.LP.AddVar(lo, hi, obj, name)
	p.kind = append(p.kind, kind)
	return v
}

// AddRow forwards to the underlying LP.
func (p *Problem) AddRow(rel lp.Rel, rhs float64, terms ...lp.Term) int {
	return p.LP.AddRow(rel, rhs, terms...)
}

// NumVars returns the variable count.
func (p *Problem) NumVars() int { return p.LP.NumVars() }

// Kind returns the kind of variable v.
func (p *Problem) Kind(v int) VarKind { return p.kind[v] }

// Solution of a MILP solve. Obj is recomputed exactly from the returned
// point (integral variables snapped to integers), so problems with integer
// data report bit-exact objectives regardless of the LP pivot path.
type Solution struct {
	Status lp.Status
	Obj    float64
	X      []float64
	Nodes  int // branch-and-bound nodes (LP relaxations) solved
}

// Options tune the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the search tree size; 0 means DefaultMaxNodes.
	MaxNodes int
	// IntTol is the integrality tolerance; 0 means 1e-6.
	IntTol float64
	// Gap is the relative optimality gap at which search stops; 0 = exact.
	Gap float64
}

// DefaultMaxNodes bounds the B&B tree for callers that pass Options{}.
const DefaultMaxNodes = 200000

// ErrNodeLimit reports that branch-and-bound exhausted its node budget
// before proving optimality. The Solution returned alongside it still
// carries the best incumbent found so far (Status lp.Optimal with its X and
// exact Obj) when one exists, so callers can use the feasible-but-unproven
// point instead of discarding the search.
var ErrNodeLimit = errors.New("milp: node limit exceeded")

type node struct {
	bound  float64 // LP relaxation value (lower bound for minimization)
	lo, hi []float64
	depth  int
}

// Arena holds all reusable branch-and-bound memory: the simplex workspace
// shared by every node's LP relaxation, a freelist for the per-node bound
// copies, the node queue, and the incumbent buffers. A zero Arena is ready
// to use; buffers grow on demand and are retained, so repeat solves on the
// same arena perform no heap allocations. Not safe for concurrent use.
type Arena struct {
	ws             lp.Workspace
	rootLo, rootHi []float64
	origLo, origHi []float64
	pool           [][]float64 // freelist of bound vectors
	queue          []node
	bestX          []float64
	candX          []float64
	// Nodes accumulates the node relaxations solved across SolveArena calls.
	Nodes int
}

// grow returns s resized to n, reusing capacity when possible. Contents are
// unspecified; callers overwrite them.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// getBounds returns a pooled copy of src.
func (a *Arena) getBounds(src []float64) []float64 {
	var s []float64
	if k := len(a.pool); k > 0 {
		s = grow(a.pool[k-1], len(src))
		a.pool = a.pool[:k-1]
	} else {
		s = make([]float64, len(src))
	}
	copy(s, src)
	return s
}

// putBounds returns a bound vector to the freelist.
func (a *Arena) putBounds(s []float64) {
	if s != nil {
		a.pool = append(a.pool, s)
	}
}

// Solve runs branch-and-bound with a throwaway arena and returns an optimal
// solution, Infeasible when no integral point exists, or Unbounded when the
// relaxation is unbounded (treated as unbounded MILP; our formulations are
// always bounded). Hot paths should use SolveArena with a reused Arena.
func (p *Problem) Solve(opt Options) (Solution, error) {
	return p.SolveArena(new(Arena), opt)
}

// SolveArena runs branch-and-bound borrowing all memory from a. The
// returned Solution.X aliases the arena and is only valid until the next
// SolveArena call on the same arena; callers that retain it must copy.
//
// Exploration is dive-then-best-first: after branching, the child nearer
// the fractional LP value is solved next and its sibling is queued; when a
// dive bottoms out (integral, pruned, or infeasible), the smallest-bound
// queued node is popped, deeper first on ties.
//
//contract:allocfree
func (p *Problem) SolveArena(a *Arena, opt Options) (Solution, error) {
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	tol := opt.IntTol
	if tol == 0 {
		tol = 1e-6
	}

	n := p.LP.NumVars()
	a.rootLo = grow(a.rootLo, n)
	a.rootHi = grow(a.rootHi, n)
	rootLo, rootHi := a.rootLo, a.rootHi
	for v := 0; v < n; v++ {
		rootLo[v], rootHi[v] = p.LP.Bounds(v)
		if p.kind[v] != Continuous {
			// Tighten integral bounds immediately.
			if !math.IsInf(rootLo[v], -1) {
				rootLo[v] = math.Ceil(rootLo[v] - tol)
			}
			if !math.IsInf(rootHi[v], 1) {
				rootHi[v] = math.Floor(rootHi[v] + tol)
			}
		}
	}

	// With an integral objective every integer-feasible point has an integral
	// value, so a subtree is dominated as soon as its bound rounds up to the
	// incumbent (see dominated).
	intObj := p.integralObjective()

	// solve installs a node's bounds on the problem and solves it; the
	// problem's own bounds are put back when the search returns.
	a.origLo = grow(a.origLo, n)
	a.origHi = grow(a.origHi, n)
	origLo, origHi := a.origLo, a.origHi
	for v := 0; v < n; v++ {
		origLo[v], origHi[v] = p.LP.Bounds(v)
	}
	//lint:ignore contract:allocfree non-escaping deferred cleanup, stack-allocated
	defer func() {
		for v := 0; v < n; v++ {
			p.LP.SetBounds(v, origLo[v], origHi[v])
		}
	}()
	//lint:ignore contract:allocfree non-escaping closure, stack-allocated: the reused-arena AllocsPerRun test pins a repeat solve at zero
	solve := func(lo, hi []float64) (lp.Solution, error) {
		for v := 0; v < n; v++ {
			p.LP.SetBounds(v, lo[v], hi[v])
		}
		a.Nodes++
		return p.LP.SolveWS(&a.ws)
	}

	rel, err := solve(rootLo, rootHi)
	if err != nil {
		return Solution{}, err
	}
	switch rel.Status {
	case lp.Infeasible:
		return Solution{Status: lp.Infeasible, Nodes: 1}, nil
	case lp.Unbounded:
		return Solution{Status: lp.Unbounded, Nodes: 1}, nil
	}

	best := Solution{Status: lp.Infeasible, Obj: math.Inf(1)}
	nodes := 1

	// The dive box is owned by the loop; queued nodes own pooled copies that
	// return to the freelist when the node is solved or discarded.
	curLo := a.getBounds(rootLo)
	curHi := a.getBounds(rootHi)
	depth := 0
	//lint:ignore contract:allocfree non-escaping deferred cleanup, stack-allocated
	defer func() {
		for i := range a.queue {
			a.putBounds(a.queue[i].lo)
			a.putBounds(a.queue[i].hi)
			a.queue[i] = node{}
		}
		a.queue = a.queue[:0]
		a.putBounds(curLo)
		a.putBounds(curHi)
	}()

	for {
		// ---- Process rel, the optimal relaxation of (curLo, curHi). ----
		// Find the most fractional integral variable.
		branchVar := -1
		worstFrac := tol
		for v := 0; v < n; v++ {
			if p.kind[v] == Continuous {
				continue
			}
			f := math.Abs(rel.X[v] - math.Round(rel.X[v]))
			if f > worstFrac {
				worstFrac = f
				branchVar = v
			}
		}
		if branchVar != -1 {
			fv := rel.X[branchVar]
			floorV, ceilV := math.Floor(fv), math.Ceil(fv)
			// Dive toward the nearer integer and queue the sibling.
			diveDown := fv-floorV < 0.5
			qlo := a.getBounds(curLo)
			qhi := a.getBounds(curHi)
			if diveDown {
				qlo[branchVar] = ceilV
			} else {
				qhi[branchVar] = floorV
			}
			a.queue = append(a.queue, node{bound: rel.Obj, lo: qlo, hi: qhi, depth: depth + 1})
			// Dive: tighten the box in place.
			if diveDown {
				curHi[branchVar] = floorV
			} else {
				curLo[branchVar] = ceilV
			}
			depth++
			nodes++
			if nodes > maxNodes {
				best.Nodes = nodes - 1 // this node's LP never ran
				return best, ErrNodeLimit
			}
			crel, cerr := solve(curLo, curHi)
			if cerr != nil {
				best.Nodes = nodes
				return best, cerr
			}
			if crel.Status == lp.Optimal && !dominated(crel.Obj, best.Obj, intObj) {
				rel = crel
				continue // keep diving
			}
			// Child pruned or infeasible: the dive is over.
		} else {
			// Integral point: snap it and recompute the objective exactly
			// from the snapped coordinates — bit-reproducible regardless of
			// which LP pivot path produced it.
			a.candX = grow(a.candX, len(rel.X))
			copy(a.candX, rel.X)
			obj := 0.0
			for v := 0; v < n; v++ {
				if p.kind[v] != Continuous {
					a.candX[v] = math.Round(a.candX[v])
				}
				if c := p.LP.Obj(v); c != 0 {
					obj += c * a.candX[v]
				}
			}
			if obj < best.Obj {
				a.bestX, a.candX = a.candX, a.bestX
				best = Solution{Status: lp.Optimal, Obj: obj, X: a.bestX}
			}
			if opt.Gap > 0 && gapClosed(a.queue, best.Obj, opt.Gap) {
				break
			}
		}

		// ---- Dive over: hand the box back, pop the best queued node. ----
		a.putBounds(curLo)
		a.putBounds(curHi)
		curLo, curHi = nil, nil
		popped := false
		for len(a.queue) > 0 {
			nd := popBest(a)
			if dominated(nd.bound, best.Obj, intObj) {
				a.putBounds(nd.lo)
				a.putBounds(nd.hi)
				continue
			}
			nodes++
			if nodes > maxNodes {
				a.putBounds(nd.lo)
				a.putBounds(nd.hi)
				best.Nodes = nodes - 1 // this node's LP never ran
				return best, ErrNodeLimit
			}
			r2, err := solve(nd.lo, nd.hi)
			if err != nil {
				a.putBounds(nd.lo)
				a.putBounds(nd.hi)
				best.Nodes = nodes
				return best, err
			}
			if r2.Status != lp.Optimal || dominated(r2.Obj, best.Obj, intObj) {
				a.putBounds(nd.lo)
				a.putBounds(nd.hi)
				continue
			}
			curLo, curHi, depth, rel = nd.lo, nd.hi, nd.depth, r2
			popped = true
			break
		}
		if !popped {
			break
		}
	}
	best.Nodes = nodes
	return best, nil
}

// integralObjective reports whether every non-zero objective coefficient is
// a finite integer on an integral variable, so that every integer-feasible
// point has an integral objective value.
func (p *Problem) integralObjective() bool {
	for v := range p.kind {
		c := p.LP.Obj(v)
		if c == 0 {
			continue
		}
		if p.kind[v] == Continuous || c != math.Trunc(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return true
}

// dominated reports whether a subtree whose relaxation bound is bound can be
// pruned against the incumbent objective inc. The general rule keeps a 1e-9
// slack. Under an integral objective no point in the subtree is worth less
// than ceil(bound) (less 1e-6 of LP drift), and since the incumbent is only
// replaced on a strict improvement, a subtree whose rounded-up bound reaches
// inc can never change the answer.
func dominated(bound, inc float64, intObj bool) bool {
	if intObj {
		return math.Ceil(bound-1e-6) >= inc
	}
	return bound >= inc-1e-9
}

// popBest removes and returns the queued node with the smallest bound; ties
// broken by depth (deeper first → resume the most recent dive).
func popBest(a *Arena) node {
	q := a.queue
	bi := 0
	for i := 1; i < len(q); i++ {
		if q[i].bound < q[bi].bound-1e-12 ||
			(math.Abs(q[i].bound-q[bi].bound) <= 1e-12 && q[i].depth > q[bi].depth) {
			bi = i
		}
	}
	nd := q[bi]
	a.queue = append(q[:bi], q[bi+1:]...)
	return nd
}

func gapClosed(queue []node, incumbent float64, gap float64) bool {
	lb := math.Inf(1)
	for _, nd := range queue {
		if nd.bound < lb {
			lb = nd.bound
		}
	}
	if math.IsInf(lb, 1) {
		return true
	}
	den := math.Max(1, math.Abs(incumbent))
	return (incumbent-lb)/den <= gap
}

// AbsLinearization adds variables and rows expressing t ≥ |expr − center|
// and returns the index of t, whose objective coefficient is set to weight.
// Used for the concentration objectives Σ|xᵢ| and Σ|xᵢ − x̄ᵢ| (paper
// (15), (19)): minimize t with t ≥ expr − center and t ≥ −(expr − center).
func (p *Problem) AbsLinearization(exprVar int, center, weight float64, name string) int {
	t := p.AddVar(Continuous, 0, lp.Inf, weight, name)
	// t ≥ x − center  ⇔  x − t ≤ center
	p.AddRow(lp.LE, center, lp.T(exprVar, 1), lp.T(t, -1))
	// t ≥ center − x  ⇔  −x − t ≤ −center
	p.AddRow(lp.LE, -center, lp.T(exprVar, -1), lp.T(t, -1))
	return t
}

// Indicator couples a continuous variable x ∈ [−gamma, gamma] to a binary c
// so that x ≠ 0 forces c = 1 (paper constraints (5)–(6)): x ≤ γ·c and
// −x ≤ γ·c. gamma must be a valid bound on |x| — the tightest valid choice
// is the buffer range, which keeps the relaxation strong.
func (p *Problem) Indicator(x, c int, gamma float64) {
	if gamma <= 0 {
		panic(fmt.Sprintf("milp: indicator gamma must be positive, got %v", gamma))
	}
	p.AddRow(lp.LE, 0, lp.T(x, 1), lp.T(c, -gamma))
	p.AddRow(lp.LE, 0, lp.T(x, -1), lp.T(c, -gamma))
}

// BruteForce enumerates all integral assignments (for tests): it requires
// every variable to be integral with finite bounds and a small search space.
// Returns the best objective and an argmin, or Infeasible.
func (p *Problem) BruteForce(limit int) (Solution, error) {
	n := p.LP.NumVars()
	type rng struct{ lo, hi int }
	ranges := make([]rng, n)
	space := 1
	for v := 0; v < n; v++ {
		if p.kind[v] == Continuous {
			return Solution{}, errors.New("milp: brute force needs all-integral problems")
		}
		lo, hi := p.LP.Bounds(v)
		if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
			return Solution{}, errors.New("milp: brute force needs finite bounds")
		}
		ranges[v] = rng{int(math.Ceil(lo - 1e-9)), int(math.Floor(hi + 1e-9))}
		width := ranges[v].hi - ranges[v].lo + 1
		if width <= 0 {
			return Solution{Status: lp.Infeasible}, nil
		}
		if space > limit/width {
			return Solution{}, fmt.Errorf("milp: brute force space exceeds %d", limit)
		}
		space *= width
	}
	best := Solution{Status: lp.Infeasible, Obj: math.Inf(1)}
	x := make([]float64, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			if !p.feasible(x) {
				return
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				if c := p.objCoef(j); c != 0 {
					obj += c * x[j]
				}
			}
			if obj < best.Obj {
				best = Solution{Status: lp.Optimal, Obj: obj, X: append([]float64(nil), x...)}
			}
			return
		}
		for k := ranges[v].lo; k <= ranges[v].hi; k++ {
			x[v] = float64(k)
			rec(v + 1)
		}
	}
	rec(0)
	return best, nil
}

// feasible checks all rows at the point x (used by BruteForce).
func (p *Problem) feasible(x []float64) bool {
	for i := 0; i < p.LP.NumRows(); i++ {
		rel, rhs, terms := p.LP.Row(i)
		lhs := 0.0
		for _, t := range terms {
			lhs += t.Coef * x[t.Var]
		}
		switch rel {
		case lp.LE:
			if lhs > rhs+1e-9 {
				return false
			}
		case lp.GE:
			if lhs < rhs-1e-9 {
				return false
			}
		case lp.EQ:
			if math.Abs(lhs-rhs) > 1e-9 {
				return false
			}
		}
	}
	return true
}

func (p *Problem) objCoef(v int) float64 { return p.LP.Obj(v) }
