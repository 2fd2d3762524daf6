package lp

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// densePivotTo is the reference Gauss-Jordan pivot: it updates every column
// of every row, zeros included. pivotTo must match it element for element.
func densePivotTo(ws *Workspace, m, stride, width, row, col int) {
	tab := ws.tab
	pr := tab[row*stride : row*stride+width]
	inv := 1 / pr[col]
	for k := range pr {
		pr[k] *= inv
	}
	pr[col] = 1
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		ri := tab[i*stride : i*stride+width]
		f := ri[col]
		if f == 0 {
			continue
		}
		for k, v := range pr {
			ri[k] -= f * v
		}
		ri[col] = 0
	}
	ws.basis[row] = col
	ws.inBasis[col] = true
}

// fullArtificialBuildRaw is the reference layout the compact artificial
// block replaced: every row gets an artificial column artStart+i and starts
// with it basic; fullArtificialSlackScan then swaps in usable slacks.
func fullArtificialBuildRaw(p *Problem, ws *Workspace, ncols int) (m, stride, total, artStart int) {
	maps := ws.maps
	m = len(p.rows)
	nslack := 0
	for i := range p.rows {
		if p.rows[i].rel != EQ {
			nslack++
		}
	}
	total = ncols + nslack + m
	stride = total
	artStart = ncols + nslack
	ws.tab = grow(ws.tab, m*stride)
	clear(ws.tab)
	tab := ws.tab
	ws.xB = grow(ws.xB, m)
	ws.basis = grow(ws.basis, m)
	slackIdx := ncols
	for i := range p.rows {
		r := &p.rows[i]
		tr := tab[i*stride : i*stride+stride]
		rhs := r.rhs
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
			rhs -= t.Coef * mp.shift
		}
		switch r.rel {
		case LE:
			tr[slackIdx] = 1
			slackIdx++
		case GE:
			tr[slackIdx] = -1
			slackIdx++
		}
		if rhs < 0 {
			for k := range tr {
				tr[k] = -tr[k]
			}
			rhs = -rhs
		}
		tr[artStart+i] = 1
		ws.basis[i] = artStart + i
		ws.xB[i] = rhs
	}
	return m, stride, total, artStart
}

// fullArtificialSlackScan is the cold solve's starting-basis scan over the
// full-artificial layout: a row whose slack is +1 and appears in no other
// row starts with that slack basic, and its artificial column is zeroed.
func fullArtificialSlackScan(ws *Workspace, m, stride, ncols, artStart int) {
	tab := ws.tab
	for i := 0; i < m; i++ {
		ri := i * stride
		for j := ncols; j < artStart; j++ {
			if tab[ri+j] != 1 {
				continue
			}
			solo := true
			for k := 0; k < m; k++ {
				if k != i && tab[k*stride+j] != 0 {
					solo = false
					break
				}
			}
			if solo {
				tab[ri+artStart+i] = 0
				ws.basis[i] = j
				break
			}
		}
	}
}

// fullArtificialSolveWS is SolveWS over the full-artificial layout.
func fullArtificialSolveWS(p *Problem, ws *Workspace) (Solution, error) {
	if p.emptyBox() {
		return Solution{Status: Infeasible}, nil
	}
	ncols := p.layoutMaps(ws)
	m, stride, total, artStart := fullArtificialBuildRaw(p, ws, ncols)
	fullArtificialSlackScan(ws, m, stride, ncols, artStart)
	return p.solveTwoPhase(ws, m, stride, total, artStart)
}

// solveResult is one retained solve outcome: the Solution with X copied out
// of its workspace, and the error.
type solveResult struct {
	s   Solution
	err error
}

// layoutResults runs solveChain on the problem and tightenings that seed
// and tweak generate, through the given solve.
func layoutResults(seed, tweak uint64, solve func(*Problem, *Workspace) (Solution, error)) []solveResult {
	rng := rand.New(rand.NewPCG(seed, tweak))
	var out []solveResult
	solveChain(buildRandomLayout(rng), rng, solve, func(s Solution, err error) {
		s.X = slices.Clone(s.X)
		out = append(out, solveResult{s, err})
	})
	return out
}

// checkCompactLayout requires the production layout and the full-artificial
// reference to return bit-identical results — status, objective bits, X
// bits and errors — on every solve of one chain.
func checkCompactLayout(t *testing.T, seed, tweak uint64) {
	t.Helper()
	got := layoutResults(seed, tweak, (*Problem).SolveWS)
	want := layoutResults(seed, tweak, fullArtificialSolveWS)
	if len(got) != len(want) {
		t.Fatalf("seed %d/%d: %d solves, full-artificial reference %d", seed, tweak, len(got), len(want))
	}
	bits := func(x []float64) []uint64 {
		out := make([]uint64, len(x))
		for i, v := range x {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.err != w.err || g.s.Status != w.s.Status ||
			math.Float64bits(g.s.Obj) != math.Float64bits(w.s.Obj) || !slices.Equal(bits(g.s.X), bits(w.s.X)) {
			t.Fatalf("seed %d/%d, solve %d: compact %+v (%v), full-artificial %+v (%v)",
				seed, tweak, i, g.s, g.err, w.s, w.err)
		}
	}
}

// TestCompactLayoutMatchesFullArtificial: the compact artificial block
// changes no bit of any SolveWS result.
func TestCompactLayoutMatchesFullArtificial(t *testing.T) {
	for seed := uint64(0); seed < 3000; seed++ {
		checkCompactLayout(t, seed, 331)
	}
}

// FuzzCompactLayout is TestCompactLayoutMatchesFullArtificial over
// fuzzer-chosen problems.
func FuzzCompactLayout(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0xF00D), uint64(7))
	f.Add(uint64(42), uint64(0xBEEF))
	f.Fuzz(checkCompactLayout)
}

// rawWorkspace lays out p's standard-form tableau in a fresh workspace with
// the initial basis marked.
func rawWorkspace(p *Problem) (ws *Workspace, m, stride, artStart int) {
	ws = new(Workspace)
	m, stride, total, artStart := p.buildRaw(ws, p.layoutMaps(ws))
	ws.inBasis = make([]bool, total)
	for _, c := range ws.basis[:m] {
		ws.inBasis[c] = true
	}
	return ws, m, stride, artStart
}

func cloneWorkspace(ws *Workspace) *Workspace {
	return &Workspace{
		tab:     slices.Clone(ws.tab),
		xB:      slices.Clone(ws.xB),
		basis:   slices.Clone(ws.basis),
		inBasis: slices.Clone(ws.inBasis),
	}
}

// sameState reports whether two workspaces hold element-wise equal (==)
// tableaus, basic values and bases.
func sameState(a, b *Workspace) bool {
	return slices.Equal(a.tab, b.tab) && slices.Equal(a.xB, b.xB) &&
		slices.Equal(a.basis, b.basis) && slices.Equal(a.inBasis, b.inBasis)
}

// TestSparsePivotMatchesDense: sequences of random pivots on random
// standard-form tableaus, over the full stride and over the real-column
// width, leave the same tableau under the sparse and the dense update.
func TestSparsePivotMatchesDense(t *testing.T) {
	pivots := 0
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 211))
		p := buildRandomBounded(rng)
		ws, m, stride, artStart := rawWorkspace(p)
		ref := cloneWorkspace(ws)
		width := stride
		if seed%2 == 1 {
			width = artStart
		}
		for step := 0; step < 3*m; step++ {
			col := rng.IntN(width)
			if ws.inBasis[col] {
				continue
			}
			var rows []int
			for i := 0; i < m; i++ {
				if math.Abs(ws.tab[i*stride+col]) > 1e-3 {
					rows = append(rows, i)
				}
			}
			if len(rows) == 0 {
				continue
			}
			row := rows[rng.IntN(len(rows))]
			ws.inBasis[ws.basis[row]] = false
			ref.inBasis[ref.basis[row]] = false
			ws.pivotTo(m, stride, width, row, col)
			densePivotTo(ref, m, stride, width, row, col)
			pivots++
			if !sameState(ws, ref) {
				t.Fatalf("seed %d, pivot %d on (%d, %d): sparse and dense tableaus differ", seed, step, row, col)
			}
		}
	}
	if pivots < 1000 {
		t.Fatalf("only %d pivots exercised", pivots)
	}
}
