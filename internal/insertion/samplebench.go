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
}

// NewSampleBench derives the flow state the step-2 solver needs through the
// same deriveStepTwo path Run uses — step-1 pass, §III-A2 pruning, §III-A4
// window assignment, the §III-B1 skip rule, grid-snapped concentration
// centers — then picks the sample with the most step-1 tunings so Solve
// exercises a representative violating chip through both formulations.
func NewSampleBench(g *timing.Graph, cfg Config) (*SampleBench, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r := NewRunner(g, nil)
	src := r.realize(cfg).src
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
		chip: mc.New(g, cfg.Seed).Chip(bestK),
	}, nil
}

// Solve runs one full step-1 + step-2 per-sample solve on the prepared chip
// and returns the summed minimum tuning counts (a cheap checksum for
// callers to report). It reuses solver-owned scratch, so warm calls perform
// no heap allocations.
func (sb *SampleBench) Solve() int {
	return sb.s1.solve(sb.chip).NK + sb.s2.solve(sb.chip).NK
}
