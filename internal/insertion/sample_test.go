package insertion

import (
	"math"
	"testing"

	"repro/internal/timing"
	"repro/internal/variation"
)

// synthGraph builds a timing graph directly from hand-written pairs,
// bypassing circuit generation, so the per-sample solver can be probed on
// exact constraint values. The solver reads all random quantities through
// the Chip arrays, so hand-built chips fully control the bounds.
func synthGraph(ns int, pairs []timing.Pair) *timing.Graph {
	return &timing.Graph{NS: ns, Skew: make([]float64, ns), Pairs: pairs}
}

// chipWith builds a chip with uniform setup/hold and given pair delays.
func chipWith(g *timing.Graph, dmax []float64, setup, hold float64) *timing.Chip {
	ch := &timing.Chip{
		DMax:  append([]float64(nil), dmax...),
		DMin:  append([]float64(nil), dmax...),
		Setup: make([]float64, g.NS),
		Hold:  make([]float64, g.NS),
	}
	for i := 0; i < g.NS; i++ {
		ch.Setup[i] = setup
		ch.Hold[i] = hold
	}
	return ch
}

func solverFor(g *timing.Graph, T, tau float64, steps int, mode solverMode, allowed []bool, lower, center []float64) *sampleSolver {
	cfg := Config{T: T, Spec: BufferSpec{MaxRange: tau, Steps: steps}, Samples: 100}
	if err := cfg.fill(); err != nil {
		panic(err)
	}
	return NewRunner(g, nil).checkout(cfg, mode, allowed, lower, center)
}

func TestSolveCleanChip(t *testing.T) {
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1, Max: variation.Const(0, 100), Min: variation.Const(0, 100)},
	}
	g := synthGraph(2, pairs)
	ch := chipWith(g, []float64{100}, 10, 2)
	s := solverFor(g, 500, 50, 10, modeFloating, nil, nil, nil)
	out := s.solve(ch)
	if !out.Feasible || out.NK != 0 || len(out.Tuned) != 0 {
		t.Fatalf("clean chip mis-solved: %+v", out)
	}
}

func TestSolveSingleViolation(t *testing.T) {
	// Chain 0→1→2: stage 0→1 too slow at T=200 by 30 ps, stage 1→2 has
	// 80 ps slack. One buffer at FF1 (+30) fixes it.
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1},
		{Launch: 1, Capture: 2},
	}
	g := synthGraph(3, pairs)
	ch := chipWith(g, []float64{230, 100}, 0, 0)
	s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, nil)
	out := s.solve(ch)
	if !out.Feasible {
		t.Fatalf("should be fixable: %+v", out)
	}
	if out.NK != 1 {
		t.Fatalf("nk = %d, want 1", out.NK)
	}
	if len(out.Tuned) != 1 {
		t.Fatalf("tuned = %+v, want one buffer", out.Tuned)
	}
	// Either endpoint repairs it: delay FF1's capture clock (x1 = +30) or
	// advance FF0's launch clock (x0 = −30); both are single-buffer optima
	// and the repair may take either.
	tn := out.Tuned[0]
	switch tn.FF {
	case 0:
		if tn.Val > -(30 - 1e-6) {
			t.Fatalf("x0 = %v, want ≤ -30", tn.Val)
		}
	case 1:
		if tn.Val < 30-1e-6 {
			t.Fatalf("x1 = %v, want ≥ 30", tn.Val)
		}
	default:
		t.Fatalf("tuned = %+v, want FF 0 or 1", out.Tuned)
	}
	// Concentration: |x| minimized → exactly 30.
	if math.Abs(math.Abs(tn.Val)-30) > 1e-6 {
		t.Fatalf("x = %v, want |x| = 30 (concentrated)", tn.Val)
	}
}

func TestSolveUnfixableViolation(t *testing.T) {
	// Violation of 200 ps with windows of ±50: even both endpoints moving
	// (combined 100) cannot fix it.
	pairs := []timing.Pair{{Launch: 0, Capture: 1}}
	g := synthGraph(2, pairs)
	ch := chipWith(g, []float64{400}, 0, 0)
	s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, nil)
	out := s.solve(ch)
	if out.Feasible {
		t.Fatalf("should be unfixable: %+v", out)
	}
	if out.SelfLoop {
		t.Fatal("not a self-loop failure")
	}
}

func TestSolveSelfLoopViolation(t *testing.T) {
	pairs := []timing.Pair{{Launch: 0, Capture: 0}}
	g := synthGraph(1, pairs)
	ch := chipWith(g, []float64{300}, 0, 0)
	s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, nil)
	out := s.solve(ch)
	if !out.SelfLoop {
		t.Fatalf("self-loop violation must be flagged: %+v", out)
	}
}

func TestSolveDisallowedEndpoints(t *testing.T) {
	// Step-2 mode with no allowed FFs: a violation is unfixable.
	pairs := []timing.Pair{{Launch: 0, Capture: 1}}
	g := synthGraph(2, pairs)
	ch := chipWith(g, []float64{230}, 0, 0)
	allowed := []bool{false, false}
	lower := []float64{0, 0}
	s := solverFor(g, 200, 50, 10, modeFixed, allowed, lower, nil)
	out := s.solve(ch)
	if out.Feasible {
		t.Fatal("no allowed endpoint: must be infeasible")
	}
}

func TestSolveFixedModeGridSnapping(t *testing.T) {
	// Fixed windows [0, 50], 10 steps (step 5). Violation of 12 ps →
	// tuning must land on the grid at 15 (ceil to a multiple of 5).
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1},
		{Launch: 1, Capture: 2},
	}
	g := synthGraph(3, pairs)
	ch := chipWith(g, []float64{212, 100}, 0, 0)
	allowed := []bool{true, true, true}
	lower := []float64{0, 0, 0}
	s := solverFor(g, 200, 50, 10, modeFixed, allowed, lower, nil)
	out := s.solve(ch)
	if !out.Feasible || len(out.Tuned) != 1 {
		t.Fatalf("out = %+v", out)
	}
	v := out.Tuned[0].Val
	if k := v / 5; math.Abs(k-math.Round(k)) > 1e-9 {
		t.Fatalf("value %v off grid", v)
	}
	if v < 12 {
		t.Fatalf("value %v below required 12", v)
	}
	if v > 15+1e-9 {
		t.Fatalf("value %v not minimal grid fix", v)
	}
}

func TestSolveTwoIndependentComponents(t *testing.T) {
	// Two disjoint violated chains: each needs one buffer; nk = 2.
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1},
		{Launch: 1, Capture: 2},
		{Launch: 3, Capture: 4},
		{Launch: 4, Capture: 5},
	}
	g := synthGraph(6, pairs)
	ch := chipWith(g, []float64{230, 100, 240, 120}, 0, 0)
	s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, nil)
	out := s.solve(ch)
	if !out.Feasible || out.NK != 2 {
		t.Fatalf("out = %+v, want nk=2", out)
	}
	ffs := map[int]bool{}
	for _, tn := range out.Tuned {
		ffs[tn.FF] = true
	}
	if !(ffs[1] || ffs[0]) || !(ffs[4] || ffs[3]) {
		t.Fatalf("both components must be repaired: %+v", out.Tuned)
	}
}

func TestSolveSharedFFMinimizesCount(t *testing.T) {
	// FF1 captures two violated pairs (0→1 and 2→1): one buffer at FF1
	// fixes both; the count must be nk = 1, not 2.
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1},
		{Launch: 2, Capture: 1},
		{Launch: 1, Capture: 3}, // successor stage with slack
	}
	g := synthGraph(4, pairs)
	ch := chipWith(g, []float64{220, 225, 120}, 0, 0)
	s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, nil)
	out := s.solve(ch)
	if !out.Feasible || out.NK != 1 {
		t.Fatalf("out = %+v, want nk=1 at shared FF", out)
	}
	if len(out.Tuned) != 1 || out.Tuned[0].FF != 1 {
		t.Fatalf("tuned = %+v, want FF1", out.Tuned)
	}
}

func TestSolveHoldViolation(t *testing.T) {
	// Min delay below hold: hold bound negative, fixable by delaying the
	// launch clock or advancing the capture clock.
	pairs := []timing.Pair{{Launch: 0, Capture: 1}}
	g := synthGraph(2, pairs)
	ch := &timing.Chip{
		DMax:  []float64{100},
		DMin:  []float64{5},
		Setup: []float64{0, 0},
		Hold:  []float64{20, 20}, // hold 20 > dmin 5 → violated by 15
	}
	s := solverFor(g, 500, 50, 10, modeFloating, nil, nil, nil)
	out := s.solve(ch)
	if !out.Feasible || out.NK != 1 {
		t.Fatalf("hold violation should cost one buffer: %+v", out)
	}
}

func TestWindowOfModes(t *testing.T) {
	g := synthGraph(2, []timing.Pair{{Launch: 0, Capture: 1}})
	sF := solverFor(g, 200, 40, 8, modeFloating, nil, nil, nil)
	lo, hi := sF.windowOf(0)
	if lo != -40 || hi != 40 {
		t.Fatalf("floating window [%v,%v]", lo, hi)
	}
	lower := []float64{-10, -20}
	sX := solverFor(g, 200, 40, 8, modeFixed, []bool{true, true}, lower, nil)
	lo, hi = sX.windowOf(1)
	if lo != -20 || hi != 20 {
		t.Fatalf("fixed window [%v,%v]", lo, hi)
	}
}

func TestConcentrationTowardCenter(t *testing.T) {
	// A violation fixable by x1 ∈ [30, 50]; with center 45 the
	// concentrated solution must sit at 45, not at the 30 minimum.
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1},
		{Launch: 1, Capture: 2},
	}
	g := synthGraph(3, pairs)
	ch := chipWith(g, []float64{230, 100}, 0, 0)
	center := []float64{0, 45, 0}
	s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, center)
	out := s.solve(ch)
	if !out.Feasible || len(out.Tuned) != 1 {
		t.Fatalf("out = %+v", out)
	}
	if math.Abs(out.Tuned[0].Val-45) > 1e-6 {
		t.Fatalf("x1 = %v, want 45 (center)", out.Tuned[0].Val)
	}
}

func TestNoConcentrationStillFeasible(t *testing.T) {
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1},
		{Launch: 1, Capture: 2},
	}
	g := synthGraph(3, pairs)
	ch := chipWith(g, []float64{230, 100}, 0, 0)
	cfg := Config{T: 200, Spec: BufferSpec{MaxRange: 50, Steps: 10}, Samples: 100, NoConcentration: true}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	lower := []float64{0, 0, 0}
	for _, mode := range []solverMode{modeFloating, modeFixed} {
		s := NewRunner(g, nil).checkout(cfg, mode, []bool{true, true, true}, lower, nil)
		out := s.solve(ch)
		if !out.Feasible || out.NK != 1 {
			t.Fatalf("mode %d: out = %+v", mode, out)
		}
		// The first feasible support's Bellman-Ford point still repairs
		// the violation: x1 ≥ +30 delays the capture, or, in step 1,
		// x0 ≤ −30 advances the launch (step 2's windows [0, 50] rule
		// that out).
		if len(out.Tuned) != 1 {
			t.Fatalf("mode %d: tuned = %+v, want one buffer", mode, out.Tuned)
		}
		if err := s.checkTunings(s.compBuf, out.NK, out.Tuned, 1e-9); err != nil {
			t.Fatalf("mode %d: tuned = %+v: %v", mode, out.Tuned, err)
		}
	}
}

func TestSolveComponentHairlineViolation(t *testing.T) {
	// A pair violated by 1e-9 ps, far below the ILP's tolerances (where
	// the count MILP returns nk = 0 because x = 0 satisfies the row within
	// tolerance). The exact repair counts it like any violation — the
	// sample stays feasible with nk = 1 — and emit's 1e-7 ps floor drops
	// the vanishing 1e-9 tuning, so no buffer is used.
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1},
		{Launch: 1, Capture: 2},
	}
	g := synthGraph(3, pairs)
	ch := chipWith(g, []float64{200 + 1e-9, 100}, 0, 0)
	s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, nil)
	out := s.solve(ch)
	if !out.Feasible {
		t.Fatalf("hairline violation must stay feasible: %+v", out)
	}
	if out.NK != 1 || len(out.Tuned) != 0 {
		t.Fatalf("hairline violation: nk=%d tuned=%v, want nk=1 and no tuning", out.NK, out.Tuned)
	}
	comp := s.compBuf
	s.walkRows(comp)
	if class, _ := s.bandClassify(len(comp)); class != bandHairline {
		t.Fatalf("the δ band classifies the hairline as %d, want bandHairline", class)
	}
	if nk, ok := newMILPRoute(nil).solveComponent(s, comp); !ok || nk != 0 {
		t.Fatalf("MILP oracle on the hairline: nk=%d ok=%v, want 0 true", nk, ok)
	}
}

func TestSolveWarmZeroAllocs(t *testing.T) {
	// A warm per-sample solve — including component discovery, the
	// support enumeration and the projection LP — must run entirely out of
	// solver-owned scratch, in both modes.
	pairs := []timing.Pair{
		{Launch: 0, Capture: 1},
		{Launch: 1, Capture: 2},
		{Launch: 2, Capture: 3},
		{Launch: 3, Capture: 4},
	}
	g := synthGraph(5, pairs)
	ch := chipWith(g, []float64{230, 100, 225, 120}, 0, 0)
	cases := []struct {
		mode    solverMode
		allowed []bool
		lower   []float64
		nk      int
	}{
		{modeFloating, nil, nil, 2},
		// Windows [−25, 25] cap each tuning at 25 ps, so the 30 ps setup
		// violation needs two buffers (FF0 early, FF1 late) and the
		// 25 ps one a third.
		{modeFixed, []bool{true, true, true, true, true}, []float64{-25, -25, -25, -25, -25}, 3},
	}
	for _, tc := range cases {
		s := solverFor(g, 200, 50, 10, tc.mode, tc.allowed, tc.lower, nil)
		for i := 0; i < 3; i++ { // warm all scratch to steady-state capacity
			if out := s.solve(ch); !out.Feasible || out.NK != tc.nk {
				t.Fatalf("mode %d: unexpected outcome: %+v, want nk=%d", tc.mode, out, tc.nk)
			}
		}
		if avg := testing.AllocsPerRun(100, func() { s.solve(ch) }); avg != 0 {
			t.Fatalf("mode %d: warm solve allocates %v times per run, want 0", tc.mode, avg)
		}
	}
}
