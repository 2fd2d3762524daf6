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
}

// CheckComponentCounts runs every component of one flow configuration's
// step-1 (floating) and fixed-window passes through both solveComponent and
// solveComponentMILP, and returns an error naming the first component on
// which their feasibility, count or tuning bits differ. The fixed-window
// pass uses the windows and centers the flow derives from step 1.
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
					return cc, fmt.Errorf("mode %d sample %d component %v: %w", sv.mode, k, comp, err)
				}
			}
		}
	}
	return cc, nil
}

// compareComponent solves comp both ways and compares the results.
func compareComponent(sv *sampleSolver, comp []int, cc *CountCheck) error {
	cc.Components++
	sv.tuned = sv.tuned[:0]
	nk1, ok1 := sv.solveComponent(comp)
	t1 := append([]Tuning(nil), sv.tuned...)
	sv.tuned = sv.tuned[:0]
	nk2, ok2 := sv.solveComponentMILP(comp)
	t2 := append([]Tuning(nil), sv.tuned...)
	sv.walkRows(comp)
	if _, decided := sv.countMin(len(comp)); !decided {
		if ok2 {
			cc.Undecided++
		} else {
			cc.Infeasible++
		}
	}
	if ok1 != ok2 || nk1 != nk2 || len(t1) != len(t2) {
		return fmt.Errorf("count route (ok=%v nk=%d %v) != MILP (ok=%v nk=%d %v)", ok1, nk1, t1, ok2, nk2, t2)
	}
	for i := range t1 {
		if t1[i].FF != t2[i].FF || math.Float64bits(t1[i].Val) != math.Float64bits(t2[i].Val) {
			return fmt.Errorf("tuning %d: count route %+v != MILP %+v", i, t1[i], t2[i])
		}
	}
	return nil
}
