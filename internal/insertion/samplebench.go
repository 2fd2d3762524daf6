package insertion

import (
	"errors"

	"repro/internal/mc"
	"repro/internal/timing"
)

// SampleBench exposes the per-sample hot path for benchmarking: a
// prepared step-1 (floating-window) and step-2 (fixed discrete window)
// solver pair plus one realized violation-bearing chip. The flow spends
// essentially all of its time inside sampleSolver.solve, so timing
// SampleBench.Solve tracks the real per-sample cost without re-running the
// surrounding Monte Carlo machinery.
type SampleBench struct {
	s1, s2 *sampleSolver
	chip   *timing.Chip
	milp   int // MILP-routed components over every Solve
}

// NewSampleBench derives the flow state the step-2 solver needs through the
// same deriveStepTwo path Run uses — step-1 pass, §III-A2 pruning, §III-A4
// window assignment, the §III-B1 skip rule, grid-snapped concentration
// centers — then picks the sample with the most step-1 tunings so Solve
// exercises a representative violating chip through both formulations.
func NewSampleBench(g *timing.Graph, cfg Config) (*SampleBench, error) {
	return newSampleBench(g, cfg)
}

// NewSampleBenchMILP is NewSampleBench with every component of the
// derivation passes and of Solve sent through the two-ILP route, so the
// branch-and-bound keeps a workload of its own (milp's solve digests).
func NewSampleBenchMILP(g *timing.Graph, cfg Config) (*SampleBench, error) {
	cfg.forceMILP = true
	return newSampleBench(g, cfg)
}

func newSampleBench(g *timing.Graph, cfg Config) (*SampleBench, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	eng := mc.New(g, cfg.Seed)
	eng.Workers = cfg.Workers
	var src mc.Source = eng
	if cfg.ChipCacheMB > 0 && eng.PopulationBytes(cfg.Samples) <= int64(cfg.ChipCacheMB)<<20 {
		src = eng.Materialize(cfg.Samples)
	}
	r := NewRunner(g, nil)
	s1, err := r.runPass(src, cfg, PassSpec{Kind: PassFloating})
	if err != nil {
		return nil, err
	}
	st2, err := r.deriveStepTwo(src, cfg, s1)
	if err != nil {
		return nil, err
	}
	bestK, bestN := -1, 0
	for k, tns := range s1.perSample {
		if len(tns) > bestN {
			bestK, bestN = k, len(tns)
		}
	}
	if bestK < 0 {
		return nil, errors.New("insertion: no violating sample to benchmark")
	}
	// The two solvers are checked out for the benchmark's lifetime (never
	// released), so Solve owns them exclusively.
	return &SampleBench{
		s1:   r.checkout(cfg, modeFloating, nil, nil, nil),
		s2:   r.checkout(cfg, modeFixed, st2.allowed, st2.lower, st2.center),
		chip: eng.Chip(bestK),
	}, nil
}

// Solve runs one full step-1 + step-2 per-sample solve on the prepared chip
// and returns the summed minimum tuning counts (a cheap checksum for
// callers to report). It reuses solver-owned scratch, so warm calls perform
// no heap allocations.
func (sb *SampleBench) Solve() int {
	o1 := sb.s1.solve(sb.chip)
	o2 := sb.s2.solve(sb.chip)
	sb.milp += o1.MILP + o2.MILP
	return o1.NK + o2.NK
}

// MILPComponents returns the components Solve has sent to the two-ILP
// route so far, over both solvers.
func (sb *SampleBench) MILPComponents() int { return sb.milp }

// Nodes returns the branch-and-bound node relaxations both solvers have
// solved so far.
func (sb *SampleBench) Nodes() int { return sb.s1.arena.Nodes + sb.s2.arena.Nodes }
