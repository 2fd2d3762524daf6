package insertion

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/timing"
)

// fuzzComponent is a decoded FuzzComponentCount input: a solver whose
// per-sample bounds are set directly, over a component of FFs 0..n−1 plus
// two FFs outside it.
type fuzzComponent struct {
	s    *sampleSolver
	comp []int
	// hairlineOnly: every violated bound is a planted near-zero hairline.
	hairlineOnly bool
}

// Fuzz component geometry: τ = 50 ps over 10 steps of 5 ps.
const (
	fuzzTau   = 50.0
	fuzzSteps = 10
)

// decodeFuzzComponent reads one component from fuzz bytes. Byte 0 picks
// the component size (1..6) and the mode; the next 6 bytes pick each FF's
// window lower bound −m·s for step 2. Each 5-byte record then adds a pair
// (launch, capture selectors over the component and the two outside FFs;
// setup and hold bytes; a plant byte). A plain bound is int8·τ/29, so it
// rarely lands on the grid; a planted one sits within 1e-7 (or 1e-5) of 0
// or of a grid multiple of the bound's step-2 form.
func decodeFuzzComponent(data []byte) *fuzzComponent {
	if len(data) < 7 {
		return nil
	}
	n := 1 + int(data[0])%6
	mode := modeFloating
	if data[0]&0x40 != 0 {
		mode = modeFixed
	}
	ns := n + 2
	step := fuzzTau / fuzzSteps
	lower := make([]float64, ns)
	for v := 0; v < n; v++ {
		lower[v] = -float64(int(data[1+v])%(fuzzSteps+1)) * step
	}
	type rec struct {
		l, c        int
		setup, hold float64
		hair        bool
	}
	var recs []rec
	for b := data[7:]; len(b) >= 5 && len(recs) < 24; b = b[5:] {
		l, c := int(b[0])%ns, int(b[1])%ns
		if l == c || (l >= n && c >= n) {
			continue // self-loop, or a pair not touching the component
		}
		r := rec{l: l, c: c,
			setup: float64(int8(b[2])) * fuzzTau / 29,
			hold:  float64(int8(b[3])) * fuzzTau / 29}
		tiny := float64(int8(b[4])) / 128 * 1e-7
		if b[4]&4 != 0 {
			// Inside the MILP's tolerance band (|x| ≤ τ·1e-6) but far
			// outside 1e-7.
			tiny *= 100
		}
		switch b[4] & 3 {
		case 1: // setup hairline at 0
			r.setup, r.hair = tiny, true
		case 2: // setup hairline at a grid multiple: x_l − x_c ≤ b is
			// k_l − k_c ≤ (b − lower_l + lower_c)/s.
			r.setup = float64(int8(b[2])%8)*step + lower[l] - lower[c] + tiny
		case 3: // hold hairline at 0
			r.hold, r.hair = tiny, true
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil
	}
	pairs := make([]timing.Pair, len(recs))
	for p, r := range recs {
		pairs[p] = timing.Pair{Launch: r.l, Capture: r.c}
	}
	allowed := make([]bool, ns)
	for v := range allowed {
		allowed[v] = true
	}
	s := solverFor(synthGraph(ns, pairs), 200, fuzzTau, fuzzSteps, mode, allowed, lower, nil)
	fc := &fuzzComponent{s: s, hairlineOnly: true}
	violated := false
	for p, r := range recs {
		s.setupB[p], s.holdB[p] = r.setup, r.hold
		if r.setup < 0 || r.hold < 0 {
			violated = true
			if !r.hair {
				fc.hairlineOnly = false
			}
		}
	}
	fc.hairlineOnly = fc.hairlineOnly && violated
	for v := 0; v < n; v++ {
		fc.comp = append(fc.comp, v)
	}
	return fc
}

// FuzzComponentCount checks the combinatorial repair against the MILP on
// random components of up to 6 FFs in both modes: wherever the δ band
// decides the count, it is the count MILP's; a component whose only
// violations are planted hairlines is never decided by the band; and
// solveComponent and the two-ILP oracle agree as compareComponent checks —
// feasibility, count and, where both are exact, the concentration
// objective.
func FuzzComponentCount(f *testing.F) {
	// One violated setup row 0→1 (−20 ps) between two free FFs, floating.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0xF4, 0x7F, 0})
	// The same in step 2, windows [−25, 25], plus a row to an outside FF.
	f.Add([]byte{0x41, 5, 5, 0, 0, 0, 0, 0, 1, 0xF4, 0x7F, 0, 1, 3, 0x20, 0x10, 0})
	// Only a planted setup hairline at 0 (−5e-8 ps).
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0x7F, 0xC1})
	// A grid hairline next to a real violation, step 2.
	f.Add([]byte{0x42, 2, 4, 6, 0, 0, 0, 0, 1, 0xF0, 0x7F, 0, 1, 2, 0x03, 0x40, 0x42})
	// Unrepairable: a −190 ps setup row against windows of ±50.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0x91, 0x7F, 0})
	// A chain over five FFs with hold rows in play.
	f.Add([]byte{4, 1, 2, 3, 4, 5, 0, 0, 1, 0xF8, 0x10, 0, 1, 2, 0x30, 0xFA, 0, 2, 3, 0xF9, 0x30, 0, 3, 4, 0x05, 0xF0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := decodeFuzzComponent(data)
		if fc == nil {
			return
		}
		s, comp := fc.s, fc.comp
		s.walkRows(comp)
		class, nk := s.bandClassify(len(comp))
		decided := class == bandCount || class == bandClean
		route := newMILPRoute(nil)
		route.buildProblem(s, comp)
		sol, err := route.solveArena()
		if decided {
			if err != nil || sol.Status != lp.Optimal {
				t.Fatalf("the band decided nk=%d, MILP status %v err %v", nk, sol.Status, err)
			}
			if got := int(math.Round(sol.Obj)); got != nk {
				t.Fatalf("the band decided nk=%d, MILP nk=%d", nk, got)
			}
		}
		if fc.hairlineOnly && decided {
			t.Fatalf("only hairline violations, but the band decided nk=%d", nk)
		}
		var cc CountCheck
		if err := compareComponent(s, comp, &cc); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCountBandCoversMILPTolerance pins why the band scales with τ: the
// count MILP calls a row violated by up to τ·1e-6 repaired with no buffer
// (a usage binary that small rounds to 0), so a fixed 1e-6 ps band would
// decide nk = 1 where the MILP says 0. The band must leave every such
// component undecided, in both modes, while the exact count charges it
// one buffer.
func TestCountBandCoversMILPTolerance(t *testing.T) {
	pairs := []timing.Pair{{Launch: 0, Capture: 1}, {Launch: 1, Capture: 2}}
	g := synthGraph(3, pairs)
	all := []bool{true, true, true}
	lower := []float64{-25, -25, -25}
	for _, mode := range []solverMode{modeFloating, modeFixed} {
		for _, viol := range []float64{1e-9, 1e-6, 1e-5, 4e-5, 1e-4, 1e-3} {
			ch := chipWith(g, []float64{200 + viol, 100}, 0, 0)
			s := solverFor(g, 200, 50, 10, mode, all, lower, nil)
			s.solve(ch) // realizes the bounds and the component
			comp := s.compBuf
			s.walkRows(comp)
			if nk, ok, _ := s.countMin(len(comp)); !ok || nk != 1 {
				t.Errorf("mode %d viol %g: exact count nk=%d ok=%v, want 1", mode, viol, nk, ok)
			}
			class, nk := s.bandClassify(len(comp))
			decided := class == bandCount || class == bandClean
			route := newMILPRoute(nil)
			route.buildProblem(s, comp)
			sol, err := route.solveArena()
			if err != nil || sol.Status != lp.Optimal {
				t.Fatalf("mode %d viol %g: MILP status %v err %v", mode, viol, sol.Status, err)
			}
			milpNK := int(math.Round(sol.Obj))
			if decided && nk != milpNK {
				t.Errorf("mode %d viol %g: band nk=%d, MILP nk=%d", mode, viol, nk, milpNK)
			}
			if viol >= 1e-3 && !decided {
				t.Errorf("mode %d viol %g: a clear violation stays undecided", mode, viol)
			}
		}
	}
}

// TestCountMinCapFallsBack: a component countMin cannot enumerate — over
// maxCountFFs, or one whose count maxCountSupports checks leave open — is
// left unrepaired and counted in Truncated.
func TestCountMinCapFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		violated func(stage int) bool
		slack    float64 // dmax of the unviolated stages
	}{
		// Setup-tight stages (bound 20 < τ) pull a 17-FF chain into one
		// component; every eighth stage is violated by 30 ps.
		{"over maxCountFFs", maxCountFFs + 1, func(i int) bool { return i%8 == 0 }, 180},
		// 16 FFs, every even stage violated by 30 ps and the others
		// interacting (bound 90 < 2τ): the count is 8, and the supports of
		// sizes 0–4 plus part of 5 exhaust the budget first.
		{"over maxCountSupports", maxCountFFs, func(i int) bool { return i%2 == 0 }, 110},
	} {
		pairs := make([]timing.Pair, tc.n-1)
		dmax := make([]float64, tc.n-1)
		for i := range pairs {
			pairs[i] = timing.Pair{Launch: i, Capture: i + 1}
			dmax[i] = tc.slack
			if tc.violated(i) {
				dmax[i] = 230
			}
		}
		g := synthGraph(tc.n, pairs)
		s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, nil)
		out := s.solve(chipWith(g, dmax, 0, 0))
		if out.Feasible || out.Truncated != 1 || len(s.compOff) != 1 || len(s.compBuf) != tc.n {
			t.Fatalf("%s: want one unrepaired %d-FF component counted in Truncated, got %+v over %d FFs in %d components",
				tc.name, tc.n, out, len(s.compBuf), len(s.compOff))
		}
		s.walkRows(s.compBuf)
		if nk, ok, capped := s.countMin(tc.n); ok || !capped {
			t.Fatalf("%s: countMin nk=%d ok=%v capped=%v, want capped", tc.name, nk, ok, capped)
		}
	}
}

// TestProjectKeepsBestOnBudget: a 16-FF chain with five violated stages
// has nk = 5, decided early among the 4,368 size-5 supports, so project
// runs out of support budget before it has seen them all. It keeps the
// best projection found so far, a valid repair.
func TestProjectKeepsBestOnBudget(t *testing.T) {
	const n = maxCountFFs
	pairs := make([]timing.Pair, n-1)
	dmax := make([]float64, n-1)
	for i := range pairs {
		pairs[i] = timing.Pair{Launch: i, Capture: i + 1}
		dmax[i] = 160 // setup-tight (bound 40 < τ): the closure spans the chain
		if i%2 == 0 && i < 10 {
			dmax[i] = 230 // violated by 30 ps
		}
	}
	g := synthGraph(n, pairs)
	s := solverFor(g, 200, 50, 10, modeFloating, nil, nil, nil)
	ch := chipWith(g, dmax, 0, 0)
	out := s.solve(ch)
	if !out.Feasible || out.NK != 5 || out.Truncated != 0 || len(s.compBuf) != n {
		t.Fatalf("want a feasible nk=5 repair of one %d-FF component, got %+v over %d FFs", n, out, len(s.compBuf))
	}
	if err := s.checkTunings(s.compBuf, out.NK, out.Tuned, 1e-9); err != nil {
		t.Fatalf("tuned %v: %v", out.Tuned, err)
	}
	s.walkRows(s.compBuf)
	s.countMin(n)
	left := 0
	for mask := s.nkMask; mask <= 1<<n-1; mask = nextSupport(mask) {
		left++
	}
	if left-1 <= s.nkBudget {
		t.Fatalf("%d size-5 supports after the first feasible one within a budget of %d: project never runs out", left-1, s.nkBudget)
	}
}

// TestCountMinHugeBound: a row joins a component when either bound is
// below 2τ, so its other bound can be arbitrarily large. A 1e20 ps setup
// bound next to a real hold violation must read as non-binding in both
// modes (the step-2 grid bound is clamped, not overflowed), and a −1e20
// one as unrepairable; either way the MILP agrees.
func TestCountMinHugeBound(t *testing.T) {
	g := synthGraph(2, []timing.Pair{{Launch: 0, Capture: 1}})
	for _, mode := range []solverMode{modeFloating, modeFixed} {
		for _, tc := range []struct {
			setup, hold float64
			ok          bool
			nk          int
		}{
			{1e20, -20, true, 1},
			{-1e20, 30, false, 0},
		} {
			s := solverFor(g, 200, 50, 10, mode, []bool{true, true}, []float64{-25, -25}, nil)
			s.setupB[0], s.holdB[0] = tc.setup, tc.hold
			comp := []int{0, 1}
			s.walkRows(comp)
			nk, ok, capped := s.countMin(len(comp))
			if ok != tc.ok || nk != tc.nk || capped {
				t.Errorf("mode %d setup %g: countMin nk=%d ok=%v capped=%v, want nk=%d ok=%v",
					mode, tc.setup, nk, ok, capped, tc.nk, tc.ok)
			}
			var cc CountCheck
			if err := compareComponent(s, comp, &cc); err != nil {
				t.Errorf("mode %d setup %g: %v", mode, tc.setup, err)
			}
		}
	}
}
