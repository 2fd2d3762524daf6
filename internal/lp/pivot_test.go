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

// denseRefactor is the reference refactorization over dense row updates,
// carrying the right-hand side inside the elimination loop. refactor must
// match it element for element.
func denseRefactor(ws *Workspace, m, stride int, cols []int) bool {
	tab, xB := ws.tab, ws.xB
	used := make([]bool, m)
	for _, c := range cols {
		r, bestA := -1, 1e-8
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			if a := math.Abs(tab[i*stride+c]); a > bestA {
				bestA, r = a, i
			}
		}
		if r == -1 {
			return false
		}
		used[r] = true
		ws.basis[r] = c
		pr := tab[r*stride : r*stride+stride]
		inv := 1 / pr[c]
		for k := range pr {
			pr[k] *= inv
		}
		pr[c] = 1
		xB[r] *= inv
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			ri := tab[i*stride : i*stride+stride]
			f := ri[c]
			if f == 0 {
				continue
			}
			for k, v := range pr {
				ri[k] -= f * v
			}
			ri[c] = 0
			xB[i] -= f * xB[r]
		}
	}
	return true
}

// rawWorkspace lays out p's standard-form tableau in a fresh workspace
// (under mapping maps when non-nil) with the initial basis marked.
func rawWorkspace(p *Problem, maps []mapping, ncols int) (ws *Workspace, m, stride, artStart int) {
	ws = new(Workspace)
	if maps == nil {
		ncols = p.layoutMaps(ws)
	} else {
		ws.maps = slices.Clone(maps)
	}
	m, stride, total, artStart := p.buildRaw(ws, ncols)
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
		ws, m, stride, artStart := rawWorkspace(p, nil, 0)
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

// TestSparseRefactorMatchesDense: restoring a saved optimal basis into the
// raw tableau gives the same tableau and basic values under the sparse and
// the dense refactorization.
func TestSparseRefactorMatchesDense(t *testing.T) {
	restored := 0
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 223))
		p := buildRandomBounded(rng)
		var solved Workspace
		s, err := p.SolveWS(&solved)
		if err != nil || s.Status != Optimal {
			continue
		}
		var b Basis
		if !solved.SaveBasis(&b) {
			t.Fatalf("seed %d: optimal solve not saved", seed)
		}
		tightenRandom(p, rng)
		ws, m, stride, _ := rawWorkspace(p, b.maps, b.ncols)
		clear(ws.inBasis)
		for _, c := range b.basis {
			ws.inBasis[c] = true
		}
		ref := cloneWorkspace(ws)
		ok := ws.refactor(m, stride, b.basis)
		if okRef := denseRefactor(ref, m, stride, b.basis); ok != okRef {
			t.Fatalf("seed %d: refactor reported %v, dense reference %v", seed, ok, okRef)
		}
		if !sameState(ws, ref) {
			t.Fatalf("seed %d: sparse and dense refactorizations differ", seed)
		}
		restored++
	}
	if restored < 100 {
		t.Fatalf("only %d bases restored", restored)
	}
}
