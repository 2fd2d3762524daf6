package milp

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lp"
)

// randomCoverMILP builds a random covering problem with an integral
// objective: binary and small-integer variables with positive integer costs
// and ≥ rows with integer coefficients. The relaxations are fractional
// often enough to grow real branch-and-bound trees, like the min-count ILP.
func randomCoverMILP(rng *rand.Rand) *Problem {
	n := 2 + rng.IntN(6)
	p := NewProblem()
	for v := 0; v < n; v++ {
		cost := float64(1 + rng.IntN(5))
		if rng.IntN(2) == 0 {
			p.AddVar(Binary, 0, 1, cost, "c")
		} else {
			p.AddVar(Integer, 0, 3, cost, "k")
		}
	}
	m := 1 + rng.IntN(5)
	for i := 0; i < m; i++ {
		var terms []lp.Term
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, lp.T(v, float64(1+rng.IntN(4))))
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddRow(lp.GE, float64(1+rng.IntN(7)), terms...)
	}
	return p
}

// scaledCopy rebuilds p with every objective coefficient multiplied by
// factor, so a non-integral factor forces the general ε pruning rule on the
// same feasible set and the same argmin.
func scaledCopy(p *Problem, factor float64) *Problem {
	q := NewProblem()
	for v := 0; v < p.NumVars(); v++ {
		lo, hi := p.LP.Bounds(v)
		q.AddVar(p.Kind(v), lo, hi, p.LP.Obj(v)*factor, "v")
	}
	for i := 0; i < p.LP.NumRows(); i++ {
		rel, rhs, terms := p.LP.Row(i)
		q.AddRow(rel, rhs, terms...)
	}
	return q
}

func TestIntegralObjectiveDetection(t *testing.T) {
	type objVar struct {
		kind VarKind
		obj  float64
	}
	cases := []struct {
		name string
		vars []objVar
		want bool
	}{
		{"integers on integral vars", []objVar{{Binary, 1}, {Integer, -3}, {Continuous, 0}}, true},
		{"non-integral coefficient", []objVar{{Binary, 1}, {Integer, 1.5}}, false},
		{"continuous variable in objective", []objVar{{Binary, 1}, {Continuous, 1}}, false},
		{"infinite coefficient", []objVar{{Integer, math.Inf(1)}}, false},
		{"empty objective", []objVar{{Continuous, 0}}, true},
	}
	for _, tc := range cases {
		p := NewProblem()
		for _, v := range tc.vars {
			p.AddVar(v.kind, 0, 5, v.obj, "v")
		}
		if got := p.integralObjective(); got != tc.want {
			t.Errorf("%s: integralObjective = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestIntegralPruningFixture: min x s.t. 2x ≥ 5. The root relaxation is
// x = 2.5, the dive finds the incumbent x = 3, and the queued sibling
// (x ≤ 2) has bound 2.5. Under the integral rule ceil(2.5) = 3 reaches the
// incumbent, so the sibling is pruned unsolved; every variant that keeps
// the ε rule has to solve it.
func TestIntegralPruningFixture(t *testing.T) {
	build := func(xObj, yObj float64) *Problem {
		p := NewProblem()
		x := p.AddVar(Integer, 0, 10, xObj, "x")
		y := p.AddVar(Continuous, 0, 0, yObj, "y")
		p.AddRow(lp.GE, 5, lp.T(x, 2), lp.T(y, 1))
		return p
	}
	for _, tc := range []struct {
		name       string
		xObj, yObj float64
		obj        float64
		nodes      int
	}{
		{"integral objective", 1, 0, 3, 2},
		{"non-integral objective", 1.5, 0, 4.5, 3},
		{"continuous variable in objective", 1, 1, 3, 3},
	} {
		s, err := build(tc.xObj, tc.yObj).Solve(Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.Status != lp.Optimal || s.Obj != tc.obj || s.X[0] != 3 {
			t.Fatalf("%s: solution %+v, want x = 3 with objective %v", tc.name, s, tc.obj)
		}
		if s.Nodes != tc.nodes {
			t.Errorf("%s: %d nodes, want %d", tc.name, s.Nodes, tc.nodes)
		}
	}
}

// TestIntegralPruningMatchesBruteForce: on random covering problems with an
// integral objective the pruned search lands on the brute-force optimum
// (status and bit-identical objective) and, summed over all problems,
// solves fewer nodes than the same problems under the ε rule (objective
// scaled by 1.5).
func TestIntegralPruningMatchesBruteForce(t *testing.T) {
	var arena, scaledArena Arena
	pruned, general := 0, 0
	for seed := uint64(0); seed < 300; seed++ {
		p := randomCoverMILP(rand.New(rand.NewPCG(seed, 83)))
		if !p.integralObjective() {
			t.Fatalf("seed %d: cover objective not detected as integral", seed)
		}
		bb, err := p.SolveArena(&arena, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pruned += bb.Nodes
		bf, err := p.BruteForce(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if bb.Status != bf.Status || (bb.Status == lp.Optimal && bb.Obj != bf.Obj) {
			t.Fatalf("seed %d: pruned search %v/%v, brute force %v/%v", seed, bb.Status, bb.Obj, bf.Status, bf.Obj)
		}
		sc, err := scaledCopy(p, 1.5).SolveArena(&scaledArena, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sc.Status != bb.Status || (bb.Status == lp.Optimal && sc.Obj != 1.5*bb.Obj) {
			t.Fatalf("seed %d: scaled %v/%v, want %v/%v", seed, sc.Status, sc.Obj, bb.Status, 1.5*bb.Obj)
		}
		general += sc.Nodes
	}
	if pruned >= general {
		t.Fatalf("integral pruning solved %d nodes, ε rule %d: no saving", pruned, general)
	}
	t.Logf("nodes: integral rule %d, ε rule %d", pruned, general)
}

// FuzzIntegralPruning cross-checks the integral-objective pruning against
// the brute-force oracle on random covering problems. FuzzSolveArenaWarm
// already drives randomIntegerMILP, whose objective is integral too, so this
// target only adds the covering shape of the min-count ILP.
func FuzzIntegralPruning(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0xF00D), uint64(9))
	f.Add(uint64(77), uint64(0xBEEF))
	f.Fuzz(func(t *testing.T, seed, tweak uint64) {
		p := randomCoverMILP(rand.New(rand.NewPCG(seed, tweak)))
		if !p.integralObjective() {
			t.Fatal("integer-data objective not detected as integral")
		}
		bb, err := p.Solve(Options{})
		if err != nil {
			return // node-limit pathologies are not equivalence failures
		}
		bf, err := p.BruteForce(1 << 18)
		if err != nil {
			return // oversized spaces are fine to skip
		}
		if bb.Status != bf.Status {
			t.Fatalf("status %v vs brute force %v", bb.Status, bf.Status)
		}
		if bb.Status == lp.Optimal && bb.Obj != bf.Obj {
			t.Fatalf("obj %v vs brute force %v", bb.Obj, bf.Obj)
		}
	})
}
