package milp

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

// randomIntegerMILP builds a random all-integral MILP with integer data, so
// objectives are exactly representable and optima compare bit-for-bit.
func randomIntegerMILP(rng *rand.Rand) *Problem {
	n := 1 + rng.IntN(4)
	p := NewProblem()
	for v := 0; v < n; v++ {
		p.AddVar(Integer, -2, 3, math.Round(rng.NormFloat64()*3), "v")
	}
	m := 1 + rng.IntN(4)
	for i := 0; i < m; i++ {
		var terms []lp.Term
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.7 {
				terms = append(terms, lp.T(v, float64(rng.IntN(7)-3)))
			}
		}
		if len(terms) == 0 {
			continue
		}
		rhs := float64(rng.IntN(13) - 4)
		if rng.Float64() < 0.5 {
			p.AddRow(lp.LE, rhs, terms...)
		} else {
			p.AddRow(lp.GE, rhs, terms...)
		}
	}
	return p
}

// TestWarmMatchesBruteForceBitForBit: on random integer-data MILPs the
// search on a reused arena must land on the exact brute-force optimum —
// same status, and a bit-identical objective (both sides accumulate integer
// terms in variable order).
func TestWarmMatchesBruteForceBitForBit(t *testing.T) {
	var arena Arena // shared across cases: exercises bound pooling
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 71))
		p := randomIntegerMILP(rng)
		bb, err := p.SolveArena(&arena, Options{})
		if err != nil {
			return false
		}
		bf, err := p.BruteForce(1 << 20)
		if err != nil {
			return false
		}
		if bb.Status != bf.Status {
			t.Logf("seed %d: status %v, brute force %v", seed, bb.Status, bf.Status)
			return false
		}
		if bb.Status == lp.Optimal && bb.Obj != bf.Obj {
			t.Logf("seed %d: obj %v (%x), brute force %v (%x)",
				seed, bb.Obj, math.Float64bits(bb.Obj), bf.Obj, math.Float64bits(bf.Obj))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// randomMixedMILP builds a random mixed problem from seed: even variables
// integral, odd ones continuous, ≤ rows with small integer data.
func randomMixedMILP(seed uint64) *Problem {
	n := 2 + rand.New(rand.NewPCG(seed, 79)).IntN(4)
	rng := rand.New(rand.NewPCG(seed, 101))
	p := NewProblem()
	for v := 0; v < n; v++ {
		kind := Integer
		if v%2 == 1 {
			kind = Continuous
		}
		p.AddVar(kind, -3, 3, math.Round(rng.NormFloat64()*2), "v")
	}
	for i := 0; i < 1+rng.IntN(4); i++ {
		var terms []lp.Term
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.7 {
				terms = append(terms, lp.T(v, float64(rng.IntN(7)-3)))
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddRow(lp.LE, float64(rng.IntN(9)-3), terms...)
	}
	return p
}

// TestWarmMatchesColdMixed: on mixed integer/continuous problems, where
// alternate optima can differ in the continuous part, a solve on a reused
// arena (its bound pool, queue and workspace holding the previous
// problems' leftovers) must return exactly what a fresh arena returns:
// status, objective and X bits, and node count.
func TestWarmMatchesColdMixed(t *testing.T) {
	var warmArena Arena
	f := func(seed uint64) bool {
		warm, err1 := randomMixedMILP(seed).SolveArena(&warmArena, Options{})
		cold, err2 := randomMixedMILP(seed).Solve(Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if warm.Status != cold.Status || warm.Nodes != cold.Nodes ||
			math.Float64bits(warm.Obj) != math.Float64bits(cold.Obj) || len(warm.X) != len(cold.X) {
			t.Logf("seed %d: reused arena %+v, fresh arena %+v", seed, warm, cold)
			return false
		}
		for i := range warm.X {
			if math.Float64bits(warm.X[i]) != math.Float64bits(cold.X[i]) {
				t.Logf("seed %d: x[%d] reused arena %v, fresh arena %v", seed, i, warm.X[i], cold.X[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeLimitReturnsIncumbent: when the node budget runs out after an
// incumbent was found, the Solution alongside ErrNodeLimit must carry it.
func TestNodeLimitReturnsIncumbent(t *testing.T) {
	// min 1.5x s.t. 2x ≥ 5, x ∈ [0,10] integer. The root LP is x = 2.5; the
	// dive rounds up to the incumbent x = 3 (objective 4.5) at node 2; the
	// remaining queued child (x ≤ 2, bound 3.75) busts MaxNodes = 2 before
	// being solved. The objective is non-integral on purpose: with min x the
	// integral-objective rule proves x = 3 optimal at node 2 (the child's
	// bound 2.5 rounds up to the incumbent) and the limit never fires.
	p := NewProblem()
	x := p.AddVar(Integer, 0, 10, 1.5, "x")
	p.AddRow(lp.GE, 5, lp.T(x, 2))
	s, err := p.Solve(Options{MaxNodes: 2})
	if err != ErrNodeLimit {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("incumbent discarded: %+v", s)
	}
	if s.Obj != 4.5 || s.X[x] != 3 {
		t.Fatalf("incumbent = %+v, want x = 3", s)
	}
	if s.Nodes == 0 {
		t.Fatal("Nodes not reported alongside ErrNodeLimit")
	}
}

// TestNodeLimitNoIncumbent: with no incumbent yet, the limited solve still
// errors and reports an Infeasible placeholder solution.
func TestNodeLimitNoIncumbent(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(Integer, 0, 10, 1, "x")
	y := p.AddVar(Integer, 0, 10, 1, "y")
	p.AddRow(lp.GE, 1, lp.T(x, 2), lp.T(y, 2))
	p.AddRow(lp.GE, 3, lp.T(x, 2), lp.T(y, 4))
	s, err := p.Solve(Options{MaxNodes: 1})
	if err != ErrNodeLimit {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
	if s.Status == lp.Optimal {
		t.Fatalf("no node beyond the root was solved, yet an incumbent appeared: %+v", s)
	}
}

// TestSolveArenaWarmZeroAllocs: a repeat solve on a reused arena — a
// multi-node search through the bound pool and the queue — must not touch
// the heap.
func TestSolveArenaWarmZeroAllocs(t *testing.T) {
	p := NewProblem()
	var arena Arena
	build := func() {
		p.Reset()
		const n = 6
		var xs, cs [n]int
		for v := 0; v < n; v++ {
			xs[v] = p.AddVar(Continuous, -50, 50, 0, "x")
			cs[v] = p.AddVar(Binary, 0, 1, 1, "c")
			p.Indicator(xs[v], cs[v], 50)
		}
		for v := 0; v < n-1; v++ {
			p.AddRow(lp.LE, float64(-10+v), lp.T(xs[v], 1), lp.T(xs[v+1], -1))
		}
	}
	solve := func() {
		build()
		s, err := p.SolveArena(&arena, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Nodes < 2 {
			t.Fatalf("solved in %d node(s): the test needs a branching search", s.Nodes)
		}
	}
	for i := 0; i < 3; i++ {
		solve() // warm pools and workspace to steady-state capacity
	}
	if avg := testing.AllocsPerRun(100, solve); avg != 0 {
		t.Fatalf("warm SolveArena allocates %v times per run, want 0", avg)
	}
}

// FuzzSolveArenaWarm cross-checks branch-and-bound on a reused arena
// against a fresh arena and the brute-force oracle on fuzzer-driven integer
// problems.
func FuzzSolveArenaWarm(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0xF00D), uint64(7))
	f.Add(uint64(42), uint64(0xBEEF))
	f.Fuzz(func(t *testing.T, seed, tweak uint64) {
		var arena Arena
		// Leave another problem's search behind in the arena first.
		randomIntegerMILP(rand.New(rand.NewPCG(tweak, seed))).SolveArena(&arena, Options{})
		p := randomIntegerMILP(rand.New(rand.NewPCG(seed, tweak)))
		warm, err1 := p.SolveArena(&arena, Options{})
		if err1 != nil {
			return // node-limit pathologies are not equivalence failures
		}
		cold, err2 := p.Solve(Options{})
		if err2 != nil || cold.Status != warm.Status || math.Float64bits(cold.Obj) != math.Float64bits(warm.Obj) {
			t.Fatalf("reused arena %v/%v, fresh arena %v/%v (err %v)", warm.Status, warm.Obj, cold.Status, cold.Obj, err2)
		}
		bf, err := p.BruteForce(1 << 18)
		if err != nil {
			return // oversized spaces are fine to skip
		}
		if warm.Status != bf.Status {
			t.Fatalf("status %v vs brute force %v", warm.Status, bf.Status)
		}
		if warm.Status == lp.Optimal && warm.Obj != bf.Obj {
			t.Fatalf("obj %v vs brute force %v", warm.Obj, bf.Obj)
		}
	})
}
