// Package yield evaluates circuit yield before and after buffer insertion.
//
// A chip passes at period T when some legal configuration of the inserted
// buffers satisfies every setup and hold constraint. Because all buffers
// share the discrete grid step s = τ/K, that question is *exactly* an
// integer difference-constraint system (substitute x = s·k and floor the
// bounds; see internal/diffcon), so each chip is a Bellman-Ford run rather
// than an ILP — this is what makes fresh-sample yield evaluation at Monte
// Carlo scale cheap. Grouped flip-flops share one variable, reproducing the
// shared physical buffer of §III-C.
package yield

import (
	"fmt"
	"math"

	"repro/internal/diffcon"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/stat"
	"repro/internal/timing"
)

// Evaluator checks chips against an inserted buffer set.
type Evaluator struct {
	G    *timing.Graph
	Spec insertion.BufferSpec

	varOf    []int // FF id → group variable index, −1 when unbuffered
	kLo, kHi []int64

	// The pairs partitioned once by the group variables a (launch) and
	// b (capture), for the sweep kernel. Self pairs have a == b (both
	// unbuffered, or one shared group), so no tuning moves their
	// constraints. The rest are rescue pairs, split into edges (a, b ≥ 0),
	// uppers (capture unbuffered, x_b = 0) and lowers (launch unbuffered,
	// x_a = 0).
	selfs, rescue         []pairRef
	edges, uppers, lowers []site
}

// pairRef is a pair with its endpoint flip-flops resolved, so the sweep
// scan reads twelve bytes per pair instead of the whole timing.Pair.
type pairRef struct{ p, launch, capture int32 }

// site is a rescue pair with its group variables resolved.
type site struct{ p, a, b int32 }

// NewEvaluator prepares an evaluator for a buffer grouping. Group windows
// must be grid-aligned (the flow guarantees this).
func NewEvaluator(g *timing.Graph, spec insertion.BufferSpec, groups []insertion.Group) (*Evaluator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{G: g, Spec: spec}
	e.varOf = make([]int, g.NS)
	for i := range e.varOf {
		e.varOf[i] = -1
	}
	step := spec.Step()
	for gi, grp := range groups {
		lo := math.Round(grp.Lo / step)
		hi := math.Round(grp.Hi / step)
		if math.Abs(grp.Lo-lo*step) > 1e-6 || math.Abs(grp.Hi-hi*step) > 1e-6 {
			return nil, fmt.Errorf("yield: group %d window [%v,%v] not grid aligned (step %v)", gi, grp.Lo, grp.Hi, step)
		}
		if lo > 0 || hi < 0 {
			return nil, fmt.Errorf("yield: group %d window [%v,%v] must cover 0", gi, grp.Lo, grp.Hi)
		}
		e.kLo = append(e.kLo, int64(lo))
		e.kHi = append(e.kHi, int64(hi))
		for _, ff := range grp.FFs {
			if ff < 0 || ff >= g.NS {
				return nil, fmt.Errorf("yield: group %d references FF %d outside circuit", gi, ff)
			}
			if e.varOf[ff] != -1 {
				return nil, fmt.Errorf("yield: FF %d appears in two groups", ff)
			}
			e.varOf[ff] = gi
		}
	}
	e.classify()
	return e, nil
}

// The pair classes of the sweep kernel (see Evaluator).
const (
	classSelf = iota
	classEdge
	classUpper
	classLower
)

// classOf returns the class of a pair whose launch and capture have the
// group variables a and b (−1 when unbuffered).
func classOf(a, b int) int {
	switch {
	case a == b:
		return classSelf
	case a >= 0 && b >= 0:
		return classEdge
	case a >= 0: // capture unbuffered
		return classUpper
	}
	return classLower // launch unbuffered
}

// classify partitions the pairs into the sweep kernel's classes, sizing
// each class list exactly.
func (e *Evaluator) classify() {
	pairs := e.G.Pairs
	vars := func(p int) (a, b int) { return e.varOf[pairs[p].Launch], e.varOf[pairs[p].Capture] }
	var n [4]int
	for p := range pairs {
		n[classOf(vars(p))]++
	}
	e.selfs = make([]pairRef, 0, n[classSelf])
	e.rescue = make([]pairRef, 0, len(pairs)-n[classSelf])
	e.edges = make([]site, 0, n[classEdge])
	e.uppers = make([]site, 0, n[classUpper])
	e.lowers = make([]site, 0, n[classLower])
	for p := range pairs {
		a, b := vars(p)
		ref := pairRef{p: int32(p), launch: int32(pairs[p].Launch), capture: int32(pairs[p].Capture)}
		st := site{p: int32(p), a: int32(a), b: int32(b)}
		switch classOf(a, b) {
		case classSelf:
			e.selfs = append(e.selfs, ref)
			continue
		case classEdge:
			e.edges = append(e.edges, st)
		case classUpper:
			e.uppers = append(e.uppers, st)
		case classLower:
			e.lowers = append(e.lowers, st)
		}
		e.rescue = append(e.rescue, ref)
	}
}

// self reports whether no tuning moves pair p's constraints: its endpoints
// share one group variable, or are both unbuffered.
func (e *Evaluator) self(p int) bool {
	pr := &e.G.Pairs[p]
	return e.varOf[pr.Launch] == e.varOf[pr.Capture]
}

// NumVars returns the number of shared buffer variables.
func (e *Evaluator) NumVars() int { return len(e.kLo) }

// system builds the integer difference system for one chip at period T.
// The boolean result is false when a constraint is unsatisfiable outright
// (no system needed).
func (e *Evaluator) system(ch *timing.Chip, T float64) (*diffcon.IntSystem, bool) {
	sys := diffcon.NewIntSystem(len(e.kLo))
	if !e.fillSystem(sys, ch, T) {
		return nil, false
	}
	return sys, true
}

// fillSystem populates sys (already sized to NumVars) with the chip's
// system at period T; false means a constraint is unsatisfiable outright.
func (e *Evaluator) fillSystem(sys *diffcon.IntSystem, ch *timing.Chip, T float64) bool {
	g := e.G
	step := e.Spec.Step()
	for v := range e.kLo {
		sys.AddUpper(v, e.kHi[v])
		sys.AddLower(v, e.kLo[v])
	}
	for p := range g.Pairs {
		pr := &g.Pairs[p]
		sB := g.SetupBound(ch, p, T)
		hB := g.HoldBound(ch, p)
		a := e.varOf[pr.Launch]  // x_launch − x_capture ≤ sB
		b := e.varOf[pr.Capture] // x_capture − x_launch ≤ hB
		switch {
		case a == b: // both unbuffered, same group, or self-loop
			if sB < 0 || hB < 0 {
				return false
			}
		case a >= 0 && b >= 0:
			sys.Add(a, b, diffcon.GridBound(sB, step))
			sys.Add(b, a, diffcon.GridBound(hB, step))
		case a >= 0: // capture unbuffered: x_capture = 0
			sys.AddUpper(a, diffcon.GridBound(sB, step))
			sys.AddLower(a, -diffcon.GridBound(hB, step))
		default: // launch unbuffered: x_launch = 0
			sys.AddLower(b, -diffcon.GridBound(sB, step))
			sys.AddUpper(b, diffcon.GridBound(hB, step))
		}
	}
	return true
}

// ChipFeasible reports whether the chip can be rescued (or passes outright)
// at period T.
func (e *Evaluator) ChipFeasible(ch *timing.Chip, T float64) bool {
	sys, ok := e.system(ch, T)
	if !ok {
		return false
	}
	return sys.Feasible()
}

// TuningOf maps a group-variable assignment to the per-FF tuning delay
// (0 for unbuffered FFs).
func (e *Evaluator) TuningOf(groupVals []float64) []float64 {
	out := make([]float64, e.G.NS)
	for ff := range out {
		if v := e.varOf[ff]; v >= 0 {
			out[ff] = groupVals[v]
		}
	}
	return out
}

// Report is a yield measurement with and without buffers.
type Report struct {
	T        float64
	Original stat.Yield // Yo: zero tuning
	Tuned    stat.Yield // Y: with the inserted buffers
}

// Improvement returns Yi = Y − Yo in percentage points.
func (r Report) Improvement() float64 {
	return r.Tuned.Percent() - r.Original.Percent()
}

// Evaluate measures Yo and Y over n fresh chips from the engine. Use an
// engine seed different from the insertion seed: the paper's yields are
// out-of-sample (manufactured chips are not the simulated ones).
func Evaluate(e *Evaluator, eng *mc.Engine, n int, T float64) Report {
	passO := make([]bool, n)
	passT := make([]bool, n)
	eng.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) {
		passO[k] = e.G.FeasibleAtZero(ch, T)
		passT[k] = passO[k] || e.ChipFeasible(ch, T)
	})
	rep := Report{T: T, Original: stat.Yield{Total: n}, Tuned: stat.Yield{Total: n}}
	for k := 0; k < n; k++ {
		if passO[k] {
			rep.Original.Pass++
		}
		if passT[k] {
			rep.Tuned.Pass++
		}
	}
	return rep
}
