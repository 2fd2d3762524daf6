package diffcon

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func TestSimpleFeasible(t *testing.T) {
	s := NewIntSystem(2)
	s.Add(0, 1, 3)  // x0 − x1 ≤ 3
	s.Add(1, 0, -1) // x1 − x0 ≤ −1 → x0 ≥ x1 + 1
	x, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Check(x) {
		t.Fatalf("solution violates constraints: %v", x)
	}
}

func TestInfeasibleCycle(t *testing.T) {
	s := NewIntSystem(2)
	s.Add(0, 1, 1)  // x0 ≤ x1 + 1
	s.Add(1, 0, -2) // x1 ≤ x0 − 2 → cycle weight −1
	if s.Feasible() {
		t.Fatal("negative cycle must be infeasible")
	}
	if _, err := s.Solve(); err != ErrInfeasible {
		t.Fatalf("err = %v", err)
	}
}

func TestOriginBounds(t *testing.T) {
	s := NewIntSystem(1)
	s.AddUpper(0, 5)
	s.AddLower(0, 2)
	x, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if x[0] < 2 || x[0] > 5 {
		t.Fatalf("x0 = %v outside [2,5]", x[0])
	}
	// Contradictory bounds.
	s2 := NewIntSystem(1)
	s2.AddUpper(0, 1)
	s2.AddLower(0, 2)
	if s2.Feasible() {
		t.Fatal("x ≤ 1 and x ≥ 2 must be infeasible")
	}
}

func TestTimingConstraintShape(t *testing.T) {
	// Setup: xi + d ≤ xj + T − s  →  xi − xj ≤ T − s − d.
	// Hold:  xi + dmin ≥ xj + h  →  xj − xi ≤ dmin − h.
	// With T=10, s=1, d=12, dmin=5, h=1: xi − xj ≤ −3, xj − xi ≤ 4.
	s := NewIntSystem(2)
	s.Add(0, 1, -3)
	s.Add(1, 0, 4)
	// Windows: both in [−4, 4].
	for v := 0; v < 2; v++ {
		s.AddUpper(v, 4)
		s.AddLower(v, -4)
	}
	x, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if x[0]-x[1] > -3 {
		t.Fatalf("setup constraint violated: %v", x)
	}
	// Shrink the windows to [−1, 1]: then x0 − x1 ≥ −2 > −3, infeasible.
	s2 := NewIntSystem(2)
	s2.Add(0, 1, -3)
	s2.Add(1, 0, 4)
	for v := 0; v < 2; v++ {
		s2.AddUpper(v, 1)
		s2.AddLower(v, -1)
	}
	if s2.Feasible() {
		t.Fatal("tight windows must make the system infeasible")
	}
}

func TestCheckReportsViolation(t *testing.T) {
	s := NewIntSystem(2)
	s.Add(0, 1, 1)
	if s.Check([]int64{5, 0}) {
		t.Fatal("violation not detected")
	}
	if !s.Check([]int64{1, 0}) {
		t.Fatal("a tight assignment satisfies x0 − x1 ≤ 1")
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"neg system":    func() { NewIntSystem(-1) },
		"origin-origin": func() { NewIntSystem(1).Add(Origin, Origin, 1) },
		"out of range":  func() { NewIntSystem(1).Add(0, 5, 1) },
		"first oor":     func() { NewIntSystem(1).Add(3, 0, 1) },
		"grid step":     func() { GridBound(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: integer feasibility agrees with LP feasibility on random
// systems with integer bounds (the constraint matrix of a difference
// system is totally unimodular, so the LP relaxation is exact).
func TestAgreesWithLP(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		n := 2 + rng.IntN(5)
		m := 1 + rng.IntN(12)
		s := NewIntSystem(n)
		p := lp.NewProblem()
		for v := 0; v < n; v++ {
			p.AddVar(-lp.Inf, lp.Inf, 0, "x")
		}
		for k := 0; k < m; k++ {
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j {
				continue
			}
			b := int64(rng.IntN(9) - 4)
			s.Add(i, j, b)
			p.AddRow(lp.LE, float64(b), lp.T(i, 1), lp.T(j, -1))
		}
		// A few origin bounds.
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.5 {
				ub := int64(rng.IntN(6))
				lb := ub - int64(rng.IntN(10))
				s.AddUpper(v, ub)
				s.AddLower(v, lb)
				p.SetBounds(v, float64(lb), float64(ub))
			}
		}
		sol, errLP := p.Solve()
		if errLP != nil {
			return false
		}
		return s.Feasible() == (sol.Status == lp.Optimal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any solution returned satisfies all constraints.
func TestSolutionSatisfiesConstraints(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 43))
		n := 1 + rng.IntN(6)
		s := NewIntSystem(n)
		for k := 0; k < rng.IntN(15); k++ {
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j {
				continue
			}
			s.Add(i, j, int64(rng.IntN(10)-2))
		}
		x, err := s.Solve()
		if err != nil {
			return true // infeasible is a legal outcome
		}
		return s.Check(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntSystemBasic(t *testing.T) {
	s := NewIntSystem(2)
	s.Add(0, 1, -3)
	s.Add(1, 0, 5)
	s.AddUpper(0, 10)
	s.AddLower(0, -10)
	s.AddUpper(1, 10)
	s.AddLower(1, -10)
	x, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Check(x) {
		t.Fatalf("int solution violates constraints: %v", x)
	}
	if x[0]-x[1] > -3 {
		t.Fatalf("x = %v", x)
	}
}

func TestIntSystemInfeasible(t *testing.T) {
	s := NewIntSystem(2)
	s.Add(0, 1, 0)
	s.Add(1, 0, -1)
	if s.Feasible() {
		t.Fatal("must be infeasible")
	}
}

func TestGridBound(t *testing.T) {
	if GridBound(10, 3) != 3 {
		t.Fatalf("GridBound(10,3) = %d", GridBound(10, 3))
	}
	if GridBound(-10, 3) != -4 {
		t.Fatalf("GridBound(-10,3) = %d", GridBound(-10, 3))
	}
	// Exactly on grid: epsilon keeps it at the multiple.
	if GridBound(9, 3) != 3 {
		t.Fatalf("GridBound(9,3) = %d", GridBound(9, 3))
	}
	if GridBound(2.9999999999, 3) != 1 {
		t.Fatalf("GridBound near multiple = %d", GridBound(2.9999999999, 3))
	}
}

// Property: integer-grid feasibility equals discrete feasibility by brute
// force on tiny systems: variables k ∈ [−3, 3], constraints step·kᵢ − step·kⱼ ≤ b.
func TestGridExactness(t *testing.T) {
	const step = 0.7
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 47))
		n := 1 + rng.IntN(3)
		type rcon struct {
			i, j int
			b    float64
		}
		var rcons []rcon
		for k := 0; k < rng.IntN(6); k++ {
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j {
				continue
			}
			rcons = append(rcons, rcon{i, j, rng.Float64()*6 - 3})
		}
		s := NewIntSystem(n)
		for _, c := range rcons {
			s.Add(c.i, c.j, GridBound(c.b, step))
		}
		for v := 0; v < n; v++ {
			s.AddUpper(v, 3)
			s.AddLower(v, -3)
		}
		// Brute force over k ∈ [−3,3]^n.
		var feasible bool
		k := make([]int, n)
		var rec func(v int) bool
		rec = func(v int) bool {
			if v == n {
				for _, c := range rcons {
					if step*float64(k[c.i])-step*float64(k[c.j]) > c.b+1e-12 {
						return false
					}
				}
				return true
			}
			for kk := -3; kk <= 3; kk++ {
				k[v] = kk
				if rec(v + 1) {
					return true
				}
			}
			return false
		}
		feasible = rec(0)
		return s.Feasible() == feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a reused IntSolver agrees with fresh Solve calls across a
// stream of random systems, and SolveInto's assignments pass Check.
func TestIntSolverReuseAgreesWithSolve(t *testing.T) {
	var sv IntSolver
	var out []int64
	rng := rand.New(rand.NewPCG(2024, 61))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(6)
		s := NewIntSystem(n)
		for k := 0; k < rng.IntN(12); k++ {
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j {
				continue
			}
			s.Add(i, j, int64(rng.IntN(9)-4))
		}
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.7 {
				s.AddUpper(v, int64(rng.IntN(6)))
				s.AddLower(v, int64(-rng.IntN(6)-1))
			}
		}
		want, wantErr := s.Solve()
		if got := sv.Feasible(s); got != (wantErr == nil) {
			t.Fatalf("trial %d: solver feasible %v, Solve err %v", trial, got, wantErr)
		}
		var err error
		out, err = sv.SolveInto(out, s)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: SolveInto err %v, Solve err %v", trial, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !s.Check(out) {
			t.Fatalf("trial %d: SolveInto assignment %v violates a constraint", trial, out)
		}
		for v := range want {
			if out[v] != want[v] {
				t.Fatalf("trial %d: SolveInto %v != Solve %v", trial, out, want)
			}
		}
	}
}

func TestIntSystemResetTruncate(t *testing.T) {
	s := NewIntSystem(3)
	s.AddUpper(0, 5)
	s.AddLower(0, -5)
	base := s.NumConstraints()
	s.Add(0, 1, -10) // tight extra constraint
	s.Add(1, 0, 4)
	s.AddUpper(1, 2)
	s.AddLower(1, -2)
	if s.Feasible() {
		t.Fatal("x0 ≤ x1 − 10 with both in [−5,5]∩[−2,2] must be infeasible")
	}
	s.Truncate(base)
	if s.NumConstraints() != base || !s.Feasible() {
		t.Fatal("truncating back to the bounds must restore feasibility")
	}
	s.Reset(1)
	if s.N() != 1 || s.NumConstraints() != 0 {
		t.Fatal("reset must clear constraints and resize")
	}
	s.AddUpper(0, 1)
	s.AddLower(0, 0)
	x, err := s.Solve()
	if err != nil || x[0] < 0 || x[0] > 1 {
		t.Fatalf("rebuilt system: x=%v err=%v", x, err)
	}
	for _, fn := range map[string]func(){
		"neg reset":    func() { s.Reset(-1) },
		"truncate oob": func() { s.Truncate(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestIntSolverWarmZeroAllocs pins the sweep-probe steady state: rebuilding
// the T-dependent suffix of a system and re-running a warm solver must not
// touch the heap.
func TestIntSolverWarmZeroAllocs(t *testing.T) {
	s := NewIntSystem(16)
	for v := 0; v < 16; v++ {
		s.AddUpper(v, 10)
		s.AddLower(v, -10)
	}
	base := s.NumConstraints()
	var sv IntSolver
	fill := func() {
		s.Truncate(base)
		for i := 0; i < 15; i++ {
			s.Add(i, i+1, int64(3+i%4))
			s.Add(i+1, i, 2)
		}
	}
	fill()
	if !sv.Feasible(s) {
		t.Fatal("system should be feasible")
	}
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		if !sv.Feasible(s) {
			t.Fatal("system should be feasible")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm probe allocates %v times per run", allocs)
	}
}

func TestAccessors(t *testing.T) {
	s := NewIntSystem(3)
	s.Add(0, 1, 2)
	if s.N() != 3 || s.NumConstraints() != 1 {
		t.Fatal("counts")
	}
}

func TestLargeChainPerformance(t *testing.T) {
	// A 2000-variable chain must solve quickly (SPFA linear-ish).
	n := 2000
	s := NewIntSystem(n)
	for i := 1; i < n; i++ {
		s.Add(i, i-1, 1)
		s.Add(i-1, i, 0)
	}
	s.AddLower(0, 0)
	s.AddUpper(n-1, int64(n))
	x, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Check(x) {
		t.Fatal("chain solution invalid")
	}
}

// Property: Solve is deterministic and its solution always passes Check;
// adding a redundant constraint implied by the solution keeps the system
// feasible.
func TestSolveDeterministicAndConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%5)
		build := func() *IntSystem {
			s := NewIntSystem(n)
			rr := rand.New(rand.NewPCG(seed, 99))
			for v := 0; v < n; v++ {
				s.AddUpper(v, int64(rr.IntN(10)))
				s.AddLower(v, int64(-rr.IntN(10)-1))
			}
			for k := 0; k < rr.IntN(8); k++ {
				i, j := rr.IntN(n), rr.IntN(n)
				if i != j {
					s.Add(i, j, int64(rr.IntN(7)-2))
				}
			}
			return s
		}
		s1, s2 := build(), build()
		x1, err1 := s1.Solve()
		x2, err2 := s2.Solve()
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if !s1.Check(x1) {
			return false
		}
		for v := range x1 {
			if x1[v] != x2[v] {
				return false
			}
		}
		// Adding a constraint the solution satisfies keeps feasibility.
		s1.Add(0, Origin, x1[0]+1)
		return s1.Feasible()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
