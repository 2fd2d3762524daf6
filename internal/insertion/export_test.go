package insertion

import (
	"fmt"
	"math"

	"repro/internal/mc"
	"repro/internal/timing"
)

// CountCheck summarizes a CheckComponentCounts run.
type CountCheck struct {
	// Components counts the components compared.
	Components int
	// Undecided counts components the MILP solves but countMin leaves open.
	Undecided int
	// Infeasible counts components the MILP finds unrepairable.
	Infeasible int
	// MILP counts components the MILP solves that solveComponent sent to
	// the MILP route (unrepairable components always take it).
	MILP int
	// Better counts components on which solveComponent's objective beats
	// the MILP route's: the MILP's concentration solve failed and it kept
	// the count solve's tuning values.
	Better int
	// Inexact counts components whose MILP tunings fail checkTunings: the
	// MILP's tolerances let a grid index sit 1e-6 off an integer, so near a
	// grid-multiple bound it may emit a value that misses a row by up to
	// 1e-7 ps (the hairline rule), and its objective bounds nothing.
	Inexact int
	// MaxObjDiff is the largest |objective difference| between the routes
	// on the components where they are compared and neither is better.
	MaxObjDiff float64
}

// CheckComponentCounts runs every component of one flow configuration's
// step-1 (floating) and fixed-window passes through both solveComponent and
// solveComponentMILP, and returns an error naming the first component on
// which their feasibility, count or concentration objective differ, or on
// which solveComponent's tunings fail checkTunings. The fixed-window pass
// uses the windows and centers the flow derives from step 1.
func CheckComponentCounts(g *timing.Graph, cfg Config) (CountCheck, error) {
	var cc CountCheck
	if err := cfg.fill(); err != nil {
		return cc, err
	}
	eng := mc.New(g, cfg.Seed)
	r := NewRunner(g, nil)
	s1, err := r.runPass(eng, cfg, PassSpec{Kind: PassFloating})
	if err != nil {
		return cc, err
	}
	st2, err := r.deriveStepTwo(eng, cfg, s1)
	if err != nil {
		return cc, err
	}
	solvers := []*sampleSolver{
		r.checkout(cfg, modeFloating, nil, nil, nil),
		r.checkout(cfg, modeFixed, st2.allowed, st2.lower, st2.center),
	}
	for _, sv := range solvers {
		for k := 0; k < cfg.Samples; k++ {
			// solve fills compBuf/compOff only when it reaches the
			// component split.
			sv.compOff = sv.compOff[:0]
			sv.solve(eng.Chip(k))
			for c := range sv.compOff {
				end := len(sv.compBuf)
				if c+1 < len(sv.compOff) {
					end = sv.compOff[c+1]
				}
				comp := sv.compBuf[sv.compOff[c]:end]
				if err := compareComponent(sv, comp, &cc); err != nil {
					return cc, fmt.Errorf("mode %d sample %d: %w", sv.mode, k, err)
				}
			}
		}
	}
	return cc, nil
}

// compareComponent solves comp both ways and compares the results: no
// failed concentration solve on either route (the MILP route would keep
// the count solve's values, and its objective would then bound nothing);
// equal feasibility and count; when solveComponent repaired comp without
// the MILP, tunings that pass checkTunings and, against MILP tunings that
// pass it too, a concentration objective no worse than the MILP's by more
// than tieTol·(1+|obj|) (a better one is counted). Errors name comp.
func compareComponent(sv *sampleSolver, comp []int, cc *CountCheck) error {
	if err := compareRoutes(sv, comp, cc); err != nil {
		return fmt.Errorf("component %v: %w", comp, err)
	}
	return nil
}

// compareRoutes is compareComponent's body.
func compareRoutes(sv *sampleSolver, comp []int, cc *CountCheck) error {
	cc.Components++
	sv.tuned = sv.tuned[:0]
	milp0, fails0 := sv.milp, sv.concFails
	nk1, ok1 := sv.solveComponent(comp)
	routed := sv.milp != milp0
	obj1 := sv.objective(comp)
	t1 := append([]Tuning(nil), sv.tuned...)
	sv.tuned = sv.tuned[:0]
	sv.xSol = sv.xSol[:0]
	nk2, ok2 := sv.solveComponentMILP(comp)
	obj2 := sv.objective(comp)
	t2 := append([]Tuning(nil), sv.tuned...)
	if sv.concFails != fails0 {
		return fmt.Errorf("%d concentration solve(s) failed on the MILP route", sv.concFails-fails0)
	}
	sv.walkRows(comp)
	if _, decided := sv.countMin(len(comp)); !decided {
		if ok2 {
			cc.Undecided++
		} else {
			cc.Infeasible++
		}
	}
	if routed && ok2 {
		cc.MILP++
	}
	if ok1 != ok2 || nk1 != nk2 {
		return fmt.Errorf("fast route (ok=%v nk=%d %v) != MILP (ok=%v nk=%d %v)", ok1, nk1, t1, ok2, nk2, t2)
	}
	if !ok1 {
		return nil
	}
	if routed {
		return nil // the MILP's tolerances, not checkTunings', apply
	}
	if err := sv.checkTunings(comp, nk1, t1); err != nil {
		return fmt.Errorf("fast route %v: %w", t1, err)
	}
	if sv.checkTunings(comp, nk2, t2) != nil {
		cc.Inexact++
		return nil
	}
	switch tol := tieTol * (1 + math.Abs(obj2)); {
	case obj1 > obj2+tol:
		return fmt.Errorf("fast route objective %v (%v) > MILP %v (%v)", obj1, t1, obj2, t2)
	case obj1 < obj2-tol:
		cc.Better++
	default:
		cc.MaxObjDiff = math.Max(cc.MaxObjDiff, math.Abs(obj1-obj2))
	}
	return nil
}

// objective is the concentration objective Σ|x − center| of the
// component's last solve, read from s.xSol with step-2 values snapped to
// the grid as emit snaps them (an empty xSol is the all-zero solution).
func (s *sampleSolver) objective(comp []int) float64 {
	obj := 0.0
	for idx, ff := range comp {
		x := 0.0
		if idx < len(s.xSol) {
			x = s.xSol[idx]
		}
		if s.mode == modeFixed && x != 0 {
			step := s.spec.Step()
			x = s.lower[ff] + math.Round((x-s.lower[ff])/step)*step
		}
		obj += math.Abs(x - s.center[ff])
	}
	return obj
}

// checkTunings checks a component's emitted tunings against the realized
// pair bounds directly from the timing graph, without the solver's row
// lists: at most nk FFs of comp tuned, each allowed and inside its window
// (on the grid in step 2), and every setup and hold constraint of every
// pair touching comp met within 1e-9 ps, FFs outside comp at 0.
func (s *sampleSolver) checkTunings(comp []int, nk int, tuned []Tuning) error {
	if len(tuned) > nk {
		return fmt.Errorf("%d tunings for nk=%d", len(tuned), nk)
	}
	x := map[int]float64{}
	in := map[int]bool{}
	for _, ff := range comp {
		in[ff] = true
	}
	tau := s.spec.MaxRange
	for _, tn := range tuned {
		if !in[tn.FF] || !s.allowed[tn.FF] {
			return fmt.Errorf("FF %d tuned outside the component or not allowed", tn.FF)
		}
		lo, hi := -tau, tau
		if s.mode == modeFixed {
			lo, hi = s.lower[tn.FF], s.lower[tn.FF]+tau
			k := (tn.Val - lo) / s.spec.Step()
			if math.Abs(k-math.Round(k)) > 1e-9 {
				return fmt.Errorf("FF %d value %v off the grid", tn.FF, tn.Val)
			}
		}
		if tn.Val < lo-1e-9 || tn.Val > hi+1e-9 {
			return fmt.Errorf("FF %d value %v outside [%v, %v]", tn.FF, tn.Val, lo, hi)
		}
		x[tn.FF] = tn.Val
	}
	for p, pr := range s.g.Pairs {
		if pr.Launch == pr.Capture || (!in[pr.Launch] && !in[pr.Capture]) {
			continue
		}
		skew := x[pr.Launch] - x[pr.Capture]
		if skew > s.setupB[p]+1e-9 || -skew > s.holdB[p]+1e-9 {
			return fmt.Errorf("pair %d (%d→%d): skew %v against setup %v, hold %v",
				p, pr.Launch, pr.Capture, skew, s.setupB[p], s.holdB[p])
		}
	}
	return nil
}

// ForceMILP returns cfg with every component of every pass sent through
// the two-ILP route: the reference flow of the plan equivalence harness.
func ForceMILP(cfg Config) Config {
	cfg.forceMILP = true
	return cfg
}
