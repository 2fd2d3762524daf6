package lp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// buildRandomBounded constructs a random LP where every variable has finite
// two-sided bounds (the shape branch-and-bound tightens) and a known
// feasible point, so the optimum exists whenever the rows are satisfiable.
func buildRandomBounded(rng *rand.Rand) *Problem {
	n := 1 + rng.IntN(6)
	m := 1 + rng.IntN(8)
	p := NewProblem()
	point := make([]float64, n)
	for j := 0; j < n; j++ {
		point[j] = rng.Float64()*8 - 4
		p.AddVar(-5, 5, math.Round(rng.NormFloat64()*3), "v")
	}
	for i := 0; i < m; i++ {
		var terms []Term
		lhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				c := float64(rng.IntN(7) - 3)
				if c == 0 {
					continue
				}
				terms = append(terms, T(j, c))
				lhs += c * point[j]
			}
		}
		if len(terms) == 0 {
			continue
		}
		if rng.Float64() < 0.5 {
			p.AddRow(LE, lhs+rng.Float64()*4, terms...)
		} else {
			p.AddRow(GE, lhs-rng.Float64()*4, terms...)
		}
	}
	return p
}

// tightenRandom tightens one random variable bound the way branch-and-bound
// does (raise lo or cut hi by an integral step) and returns the variable.
func tightenRandom(p *Problem, rng *rand.Rand) int {
	v := rng.IntN(p.NumVars())
	lo, hi := p.Bounds(v)
	cut := float64(1 + rng.IntN(3))
	if rng.Float64() < 0.5 {
		p.SetBounds(v, lo+cut, hi)
	} else {
		p.SetBounds(v, lo, hi-cut)
	}
	return v
}

// TestWarmSolveZeroAllocs: repeat solves on a reused workspace, with the
// bound changes a branch-and-bound dive makes between them, must run
// entirely out of retained storage.
func TestWarmSolveZeroAllocs(t *testing.T) {
	p := NewProblem()
	n := 8
	for v := 0; v < n; v++ {
		p.AddVar(-50, 50, 1, "x")
	}
	for v := 0; v < n-1; v++ {
		p.AddRow(LE, float64(5*v-20), T(v, 1), T(v+1, -1))
		p.AddRow(LE, float64(30-v), T(v+1, 1), T(v, -1))
	}
	var ws Workspace
	cycle := func() {
		if _, err := p.SolveWS(&ws); err != nil {
			t.Fatal(err)
		}
		p.SetBounds(2, -10, 50)
		if _, err := p.SolveWS(&ws); err != nil {
			t.Fatal(err)
		}
		p.SetBounds(3, -50, 10)
		if _, err := p.SolveWS(&ws); err != nil {
			t.Fatal(err)
		}
		p.SetBounds(2, -50, 50)
		p.SetBounds(3, -50, 50)
	}
	cycle() // warm all buffers
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("repeat SolveWS on a reused workspace allocates %v times per run, want 0", avg)
	}
}
