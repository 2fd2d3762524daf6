// Package lp implements a dense simplex solver for linear programs with
// general rows and variable bounds. It is the LP engine under the
// branch-and-bound MILP solver (internal/milp) that stands in for the
// commercial ILP solver used in the paper. Problem sizes in this system are
// small — per-sample ILPs decompose into connected components of a few dozen
// variables — so a dense tableau with Bland anti-cycling is both simple and
// fast enough.
//
// The solver is built for a hot Monte Carlo loop: it is a bounded-variable
// simplex (bounds live in the ratio test as bound flips, not as extra rows,
// which roughly halves the tableau in both dimensions for the all-two-sided
// problems of the buffer flow), the tableau is one flat, stride-indexed
// []float64, and all solver memory comes from a reusable Workspace so a
// repeat SolveWS performs no heap allocations (see DESIGN.md, "Performance
// architecture"). Every solve is a cold two-phase primal simplex from the
// slack/artificial starting basis; nothing carries over from one solve to
// the next but buffer capacity.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is a row relation.
type Rel int

// Row relations.
const (
	LE Rel = iota // Σ aᵢxᵢ ≤ b
	GE            // Σ aᵢxᵢ ≥ b
	EQ            // Σ aᵢxᵢ = b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Inf is the bound value meaning "no bound".
var Inf = math.Inf(1)

// Term is one coefficient of a row.
type Term struct {
	Var  int
	Coef float64
}

// T builds a Term.
func T(v int, c float64) Term { return Term{Var: v, Coef: c} }

// row references a span of the problem's shared term arena. Rows do not own
// term storage: keeping one arena lets Reset reuse all of it.
type row struct {
	off, n int
	rel    Rel
	rhs    float64
}

// Problem is a linear program under construction. Minimization only; flip
// objective signs for maximization. A Problem can be Reset and rebuilt
// without releasing its storage, which keeps steady-state problem assembly
// allocation-free once capacities have warmed up.
type Problem struct {
	obj    []float64
	lo, hi []float64
	names  []string
	rows   []row
	terms  []Term // shared arena backing all rows
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// Reset empties the problem for reuse, retaining all allocated capacity.
func (p *Problem) Reset() {
	p.obj = p.obj[:0]
	p.lo = p.lo[:0]
	p.hi = p.hi[:0]
	p.names = p.names[:0]
	p.rows = p.rows[:0]
	p.terms = p.terms[:0]
}

// AddVar adds a variable with bounds [lo, hi] (use ±Inf for free sides) and
// objective coefficient obj, returning its index. Name is for diagnostics.
func (p *Problem) AddVar(lo, hi, obj float64, name string) int {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %v > hi %v", name, lo, hi))
	}
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.names = append(p.names, name)
	return len(p.obj) - 1
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetObj overwrites the objective coefficient of variable v.
func (p *Problem) SetObj(v int, c float64) { p.obj[v] = c }

// Bounds returns the current bounds of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// SetBounds replaces the bounds of variable v. Unlike AddVar it accepts
// lo > hi: branch-and-bound creates such empty boxes for infeasible
// children, and the solver reports them Infeasible.
func (p *Problem) SetBounds(v int, lo, hi float64) { p.lo[v], p.hi[v] = lo, hi }

// AddRow appends the constraint Σ terms {rel} rhs and returns its index.
// Terms may repeat a variable; coefficients accumulate.
func (p *Problem) AddRow(rel Rel, rhs float64, terms ...Term) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: row references unknown variable %d", t.Var))
		}
	}
	off := len(p.terms)
	p.terms = append(p.terms, terms...)
	p.rows = append(p.rows, row{off: off, n: len(terms), rel: rel, rhs: rhs})
	return len(p.rows) - 1
}

// Obj returns the objective coefficient of variable v.
func (p *Problem) Obj(v int) float64 { return p.obj[v] }

// Row returns row i's relation, right-hand side and terms. The returned
// slice aliases internal storage and must not be modified.
func (p *Problem) Row(i int) (Rel, float64, []Term) {
	r := p.rows[i]
	return r.rel, r.rhs, p.terms[r.off : r.off+r.n : r.off+r.n]
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	Obj    float64
	X      []float64 // values of the structural variables
}

// ErrIterLimit is returned when the simplex exceeds its iteration budget,
// which indicates a degenerate cycling pathology beyond Bland's protection
// or an unexpectedly large problem.
var ErrIterLimit = errors.New("lp: simplex iteration limit exceeded")

const (
	eps       = 1e-9
	iterScale = 200 // iteration budget multiplier (× rows+cols)
)

// primalCap bounds primal simplex iterations (Bland's rule engages at half
// of it). It counts a full artificial block of m columns whatever the
// layout, so the budget depends only on the problem shape.
func primalCap(m, artStart int) int { return iterScale * (2*m + artStart + 1) }

// mapping describes how one structural variable expands into standard-form
// columns: x = shift + x⁺ − x⁻ (minus = −1 when unused), or x = shift − x⁺
// when negate is set. Standard columns carry bounds [0, ub] handled
// implicitly by the simplex.
type mapping struct {
	plus, minus int
	shift       float64
	negate      bool
}

// Workspace holds every buffer a solve needs: the flat tableau, basic
// values, bounds and state flags per standard column, cost/reduced-cost
// vectors, column values, the solution vector, and the per-variable
// expansion mappings. A zero Workspace is ready to use; buffers grow on
// demand and are retained across solves, so a repeat SolveWS performs no
// heap allocations. A Workspace is not safe for concurrent use.
type Workspace struct {
	maps    []mapping
	tab     []float64 // m × total flat tableau (basis inverse applied)
	xB      []float64 // m: current values of the basic variables
	ub      []float64 // total: upper bounds of standard columns (+Inf = none)
	atUpper []bool    // total: non-basic column rests at its upper bound
	inBasis []bool    // total
	basis   []int
	cost    []float64
	red     []float64
	colVal  []float64
	x       []float64
	pivNZ   []int32 // nonzero columns of the normalized pivot row
}

// grow returns s resized to n, reusing capacity when possible. Contents are
// unspecified; callers overwrite or clear.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Solve runs the two-phase simplex with a throwaway workspace. The problem
// is not modified. Hot paths should use SolveWS with a reused Workspace.
func (p *Problem) Solve() (Solution, error) {
	return p.SolveWS(new(Workspace))
}

// layoutMaps computes the standard-form column layout for the problem's
// current bounds and stores it in ws.maps, returning the structural column
// count. Each structural variable x with bounds [lo, hi]:
//
//	finite lo: x = lo + y, y ∈ [0, hi−lo] (u = ∞ when hi = ∞)
//	lo=−inf, hi finite: x = hi − y, y ≥ 0.
//	free: x = y⁺ − y⁻ (two columns, both unbounded).
func (p *Problem) layoutMaps(ws *Workspace) (ncols int) {
	n := len(p.obj)
	ws.maps = grow(ws.maps, n)
	maps := ws.maps
	for j := 0; j < n; j++ {
		lo, hi := p.lo[j], p.hi[j]
		switch {
		case !math.IsInf(lo, -1):
			maps[j] = mapping{plus: ncols, minus: -1, shift: lo}
			ncols++
		case !math.IsInf(hi, 1): // lo = −inf, hi finite
			maps[j] = mapping{plus: ncols, minus: -1, shift: hi, negate: true}
			ncols++
		default: // free
			maps[j] = mapping{plus: ncols, minus: ncols + 1}
			ncols += 2
		}
	}
	return ncols
}

// buildRaw assembles the standard-form tableau for the layout in ws.maps:
// structural terms mapped through the column expansion, slack columns,
// per-row sign normalization (rhs ≥ 0), and the artificial block. A row gets
// an artificial column only when its slack is not +1 after normalization
// (see needsArtificial); artificials are numbered in row order after the
// slacks, and every other row starts with its own slack basic. The
// normalized right-hand sides land in ws.xB and each row's starting column
// in ws.basis.
func (p *Problem) buildRaw(ws *Workspace, ncols int) (m, stride, total, artStart int) {
	maps := ws.maps
	m = len(p.rows)
	ws.xB = grow(ws.xB, m)
	xB := ws.xB
	// The shifted right-hand sides come first: their signs decide which rows
	// need an artificial, and so the width.
	nslack, nart := 0, 0
	for i := range p.rows {
		r := &p.rows[i]
		rhs := r.rhs
		for _, t := range p.terms[r.off : r.off+r.n] {
			rhs -= t.Coef * maps[t.Var].shift
		}
		xB[i] = rhs
		if r.rel != EQ {
			nslack++
		}
		if needsArtificial(r.rel, rhs) {
			nart++
		}
	}
	artStart = ncols + nslack
	total = artStart + nart
	stride = total

	ws.tab = grow(ws.tab, m*stride)
	clear(ws.tab)
	tab := ws.tab
	ws.basis = grow(ws.basis, m)
	basis := ws.basis
	slackIdx, artIdx := ncols, artStart
	for i := range p.rows {
		r := &p.rows[i]
		tr := tab[i*stride : i*stride+stride]
		for _, t := range p.terms[r.off : r.off+r.n] {
			mp := &maps[t.Var]
			if mp.negate {
				tr[mp.plus] -= t.Coef
			} else {
				tr[mp.plus] += t.Coef
				if mp.minus >= 0 {
					tr[mp.minus] -= t.Coef
				}
			}
		}
		if r.rel != EQ {
			tr[slackIdx] = 1
			if r.rel == GE {
				tr[slackIdx] = -1
			}
			basis[i] = slackIdx
			slackIdx++
		}
		// Make RHS non-negative so the starting basis is feasible.
		rhs := xB[i]
		if rhs < 0 {
			for k := range tr {
				tr[k] = -tr[k]
			}
			xB[i] = -rhs
		}
		if needsArtificial(r.rel, rhs) {
			tr[artIdx] = 1
			basis[i] = artIdx
			artIdx++
		}
	}
	return m, stride, total, artStart
}

// needsArtificial reports whether a row with relation rel and shifted
// right-hand side rhs lacks a +1 slack once buildRaw has normalized it to a
// non-negative rhs: an EQ row has no slack, and the flip that rhs < 0 forces
// turns an LE row's +1 slack to −1 and a GE row's −1 to +1.
func needsArtificial(rel Rel, rhs float64) bool {
	return rel == EQ || (rel == LE) == (rhs < 0)
}

// setPhase2Cost loads the original objective over the standard columns into
// ws.cost and returns the constant shift contributed by the mappings.
func (p *Problem) setPhase2Cost(ws *Workspace, total int) float64 {
	cost := ws.cost
	clear(cost)
	constShift := 0.0
	for j := 0; j < len(p.obj); j++ {
		c := p.obj[j]
		if c == 0 {
			continue
		}
		mp := &ws.maps[j]
		constShift += c * mp.shift
		if mp.negate {
			cost[mp.plus] -= c
		} else {
			cost[mp.plus] += c
			if mp.minus >= 0 {
				cost[mp.minus] -= c
			}
		}
	}
	return constShift
}

// recoverX translates the simplex state back to structural-variable values:
// basic columns from xB, non-basic columns from the bound they rest at.
func (ws *Workspace) recoverX(m, total, n int) []float64 {
	ws.colVal = grow(ws.colVal, total)
	colVal := ws.colVal
	for j := 0; j < total; j++ {
		colVal[j] = 0
		if ws.atUpper[j] && !ws.inBasis[j] {
			colVal[j] = ws.ub[j]
		}
	}
	for i := 0; i < m; i++ {
		colVal[ws.basis[i]] = ws.xB[i]
	}
	ws.x = grow(ws.x, n)
	x := ws.x
	for j := 0; j < n; j++ {
		mp := &ws.maps[j]
		v := colVal[mp.plus]
		if mp.minus >= 0 {
			v -= colVal[mp.minus]
		}
		if mp.negate {
			x[j] = mp.shift - v
		} else {
			x[j] = mp.shift + v
		}
	}
	return x
}

// SolveWS runs the two-phase simplex borrowing all memory from ws. The
// problem is not modified. The returned Solution.X aliases ws and is only
// valid until the next solve call on the same workspace; callers that
// retain it must copy.
//
//contract:allocfree
func (p *Problem) SolveWS(ws *Workspace) (Solution, error) {
	if p.emptyBox() {
		return Solution{Status: Infeasible}, nil
	}
	// --- Normalize to standard form: columns y ∈ [0, u] ---
	ncols := p.layoutMaps(ws)
	m, stride, total, artStart := p.buildRaw(ws, ncols)
	return p.solveTwoPhase(ws, m, stride, total, artStart)
}

// emptyBox reports whether some variable has lo > hi: such a problem is
// infeasible outright.
func (p *Problem) emptyBox() bool {
	for j := range p.lo {
		if p.lo[j] > p.hi[j] {
			return true
		}
	}
	return false
}

// solveTwoPhase runs the cold two-phase simplex on the raw tableau buildRaw
// laid out, starting from its initial basis.
//
//contract:allocfree
func (p *Problem) solveTwoPhase(ws *Workspace, m, stride, total, artStart int) (Solution, error) {
	n, maps := len(p.obj), ws.maps
	ws.ub = grow(ws.ub, total)
	ub := ws.ub
	for j := range ub {
		ub[j] = Inf
	}
	for j := 0; j < n; j++ {
		lo, hi := p.lo[j], p.hi[j]
		if !math.IsInf(lo, -1) && !math.IsInf(hi, 1) {
			ub[maps[j].plus] = hi - lo
		}
	}
	tab, basis := ws.tab, ws.basis
	ws.atUpper = grow(ws.atUpper, total)
	clear(ws.atUpper)
	ws.inBasis = grow(ws.inBasis, total)
	clear(ws.inBasis)
	for i := 0; i < m; i++ {
		ws.inBasis[basis[i]] = true
	}

	maxIter := primalCap(m, artStart)
	ws.cost = grow(ws.cost, total)
	ws.red = grow(ws.red, total)
	cost := ws.cost

	// --- Phase 1: minimize sum of artificials ---
	needPhase1 := false
	for i := 0; i < m; i++ {
		if basis[i] >= artStart {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		clear(cost)
		for j := artStart; j < total; j++ {
			cost[j] = 1
		}
		obj, status, err := ws.runSimplex(m, stride, total, maxIter)
		if err != nil {
			return Solution{}, err
		}
		if status == Unbounded {
			return Solution{}, errors.New("lp: phase 1 unbounded (internal error)")
		}
		if obj > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis when possible. Each
		// such artificial is basic at value 0, so the pivot is degenerate
		// and leaves xB unchanged — but only for replacement columns
		// resting at zero: a column sitting at a positive upper bound
		// already contributes ub[j] to the row sums, and pivoting it in at
		// value 0 would silently shift every basic value by that bound.
		for i := 0; i < m; i++ {
			if basis[i] < artStart {
				continue
			}
			for j := 0; j < artStart; j++ {
				if !ws.inBasis[j] && !(ws.atUpper[j] && ub[j] > 0) && math.Abs(tab[i*stride+j]) > eps {
					ws.inBasis[basis[i]] = false
					ws.pivotTo(m, stride, artStart, i, j)
					break
				}
			}
			// If no pivot column exists the row is all-zero over real
			// columns: a redundant constraint; the artificial stays basic
			// at value 0, which is harmless because phase 2 restricts the
			// working width to the real columns and a basic artificial at
			// zero contributes nothing.
		}
	}

	// --- Phase 2: original objective over real columns only. Artificial
	// columns are excluded from the working width: they are never read
	// again, so pivots stop maintaining them. ---
	constShift := p.setPhase2Cost(ws, total)
	obj, status, err := ws.runSimplex(m, stride, artStart, maxIter)
	if err != nil {
		return Solution{}, err
	}
	if status == Unbounded {
		return Solution{Status: Unbounded}, nil
	}

	x := ws.recoverX(m, total, n)
	return Solution{Status: Optimal, Obj: obj + constShift, X: x}, nil
}

// runSimplex minimizes ws.cost over the current tableau/basis with the
// bounded-variable rules: a non-basic column enters rising from its lower
// bound (negative reduced cost) or falling from its upper bound (positive
// reduced cost), and the ratio test picks the first of (a) a basic variable
// hitting its lower bound, (b) a basic variable hitting its upper bound,
// (c) the entering column reaching its opposite bound — case (c) is a bound
// flip with no pivot at all. Only columns < width participate (phase 2
// passes the real-column width, excluding artificials). Returns the
// objective value reached.
func (ws *Workspace) runSimplex(m, stride, width, maxIter int) (float64, Status, error) {
	tab, xB, ub, basis := ws.tab, ws.xB, ws.ub, ws.basis
	cost, red := ws.cost, ws.red
	iter := 0
	blandFrom := maxIter / 2
	for {
		iter++
		if iter > maxIter {
			return 0, Optimal, ErrIterLimit
		}
		// Reduced costs: red[j] = cost[j] − Σ_i cost[basis[i]]·tab[i][j],
		// recomputed per iteration but accumulated row-wise so only rows
		// with a non-zero basic cost contribute (most basic variables are
		// slacks with zero cost, making this near-linear in practice).
		copy(red[:width], cost[:width])
		for i := 0; i < m; i++ {
			cb := cost[basis[i]]
			if cb == 0 {
				continue
			}
			row := tab[i*stride : i*stride+width]
			for j, a := range row {
				red[j] -= cb * a
			}
		}
		// Entering column: most-improving score (Dantzig), or the lowest
		// eligible index once Bland's rule engages.
		enter := -1
		dir := 1.0
		bestScore := eps
		for j := 0; j < width; j++ {
			if ws.inBasis[j] {
				continue
			}
			var score, d float64
			if ws.atUpper[j] {
				if d = red[j]; d <= eps {
					continue
				}
				score = d
			} else {
				if d = red[j]; d >= -eps {
					continue
				}
				score = -d
			}
			if score > bestScore {
				enter = j
				if ws.atUpper[j] {
					dir = -1
				} else {
					dir = 1
				}
				if iter >= blandFrom {
					break // Bland: first eligible index
				}
				bestScore = score
			}
		}
		if enter == -1 {
			// Optimal: basic values plus the non-basic columns resting at
			// their upper bound.
			obj := 0.0
			for i := 0; i < m; i++ {
				if c := cost[basis[i]]; c != 0 {
					obj += c * xB[i]
				}
			}
			for j := 0; j < width; j++ {
				if ws.inBasis[j] || cost[j] == 0 {
					continue
				}
				if ws.atUpper[j] {
					obj += cost[j] * ub[j]
				}
			}
			return obj, Optimal, nil
		}
		// Ratio test over the entering direction.
		flipLimit := ub[enter]
		leave := -1
		leaveToUpper := false
		bestT := flipLimit
		for i := 0; i < m; i++ {
			a := dir * tab[i*stride+enter]
			if a > eps {
				// Basic variable decreases toward its lower bound.
				t := xB[i] / a
				if t < 0 {
					t = 0
				}
				if t < bestT-eps || (t < bestT+eps && (leave == -1 || basis[i] < basis[leave])) {
					bestT = t
					leave = i
					leaveToUpper = false
				}
			} else if a < -eps {
				// Basic variable increases toward its upper bound. A basic
				// artificial (only possible when the working width excludes
				// the artificial columns) must never rise above zero — that
				// would silently violate its row — so it is capped at 0 and
				// forced out by a degenerate pivot.
				u := ub[basis[i]]
				if basis[i] >= width {
					u = 0
				}
				if math.IsInf(u, 1) {
					continue
				}
				t := (u - xB[i]) / -a
				if t < 0 {
					t = 0
				}
				if t < bestT-eps || (t < bestT+eps && (leave == -1 || basis[i] < basis[leave])) {
					bestT = t
					leave = i
					leaveToUpper = true
				}
			}
		}
		if leave == -1 {
			if math.IsInf(flipLimit, 1) {
				return 0, Unbounded, nil
			}
			// Bound flip: the entering column crosses to its other bound;
			// basic values absorb the move, the basis is unchanged.
			if flipLimit > 0 {
				for i := 0; i < m; i++ {
					xB[i] -= dir * tab[i*stride+enter] * flipLimit
				}
			}
			ws.atUpper[enter] = !ws.atUpper[enter]
			continue
		}
		// Pivot: move the entering column by t, then exchange it with the
		// leaving basic variable.
		t := bestT
		if t > 0 {
			for i := 0; i < m; i++ {
				if i != leave {
					xB[i] -= dir * tab[i*stride+enter] * t
				}
			}
		}
		enterVal := t
		if dir < 0 {
			enterVal = ub[enter] - t
		}
		lv := basis[leave]
		ws.inBasis[lv] = false
		ws.atUpper[lv] = leaveToUpper
		ws.pivotTo(m, stride, width, leave, enter)
		xB[leave] = enterVal
		ws.atUpper[enter] = false
	}
}

// pivotTo performs a Gauss-Jordan pivot on (row, col) over the first width
// columns of the flat tableau and installs col into the basis. Basic values
// are maintained by the caller.
//
// The nonzero columns of the normalized pivot row are collected once into
// ws.pivNZ and the row updates touch only those. Tableau rows are mostly
// zero, and subtracting f·0 never changes an entry's value, so the result
// equals the dense update element for element.
func (ws *Workspace) pivotTo(m, stride, width, row, col int) {
	tab := ws.tab
	pr := tab[row*stride : row*stride+width]
	inv := 1 / pr[col]
	nz := grow(ws.pivNZ, width)[:0]
	for k := range pr {
		pr[k] *= inv
		if pr[k] != 0 {
			nz = append(nz, int32(k))
		}
	}
	ws.pivNZ = nz
	pr[col] = 1 // exact
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		ri := tab[i*stride : i*stride+width]
		f := ri[col]
		if f == 0 {
			continue
		}
		for _, k := range nz {
			ri[k] -= f * pr[k]
		}
		ri[col] = 0 // exact
	}
	ws.basis[row] = col
	ws.inBasis[col] = true
}
