package insertion

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/mc"
	"repro/internal/placement"
	"repro/internal/timing"
)

// Runner owns the reusable per-circuit flow state: the pair adjacency of
// the timing graph (computed once, shared read-only by every solver) and a
// pool of warm sample solvers whose graph-sized scratch survives across
// passes and across Run calls. A long-running service keeps one Runner per
// prepared circuit so repeated (T, budget) queries skip the per-run solver
// construction entirely.
//
// Concurrency: a Runner is safe for concurrent use. Solvers are handed out
// through a checkout API — checkout returns a solver configured for one
// pass and exclusively owned by the calling goroutine until release — so
// overlapping Run calls on one Runner share the warm pool without sharing
// live scratch. The Graph and Placement are only ever read.
type Runner struct {
	g    *timing.Graph
	pl   *placement.Placement
	adj  [][]int
	pool sync.Pool // *sampleSolver graph-sized scratch, unconfigured
}

// NewRunner prepares a Runner for a timing graph. pl may be nil (grouping
// then uses correlation only; see Run).
func NewRunner(g *timing.Graph, pl *placement.Placement) *Runner {
	r := &Runner{g: g, pl: pl, adj: g.PairAdjacency()}
	r.pool.New = func() any { return newSolverScratch(r.g, r.adj) }
	return r
}

// checkout hands out a pooled solver configured for one pass. The caller
// owns it exclusively until release; the configuration slices are borrowed
// read-only.
func (r *Runner) checkout(cfg Config, mode solverMode, allowed []bool, lower, center []float64) *sampleSolver {
	sv := r.pool.Get().(*sampleSolver)
	sv.configure(cfg, mode, allowed, lower, center)
	return sv
}

// release returns a checked-out solver to the warm pool.
func (r *Runner) release(sv *sampleSolver) { r.pool.Put(sv) }

// Population is the insertion sample universe of one (Seed, Samples) pair
// on one Runner's circuit: every pass of a flow iterates it, and so does
// every flow that differs only in its target period. Realize builds one so
// several RunOn calls share it; Run builds its own per call.
type Population struct {
	r       *Runner
	seed    uint64
	samples int
	src     mc.Source
}

// Realize builds the population cfg's flow draws. When the realized chips
// fit cfg.ChipCacheMB they are materialized once, and every pass of every
// flow run on the population replays them — byte-identical results, one
// realization per chip. Otherwise, or when cfg.Pass is set (a distributed
// flow realizes chips wherever its passes run), the population streams
// chips from the engine on each pass.
func (r *Runner) Realize(cfg Config) (*Population, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return r.realize(cfg), nil
}

// realize is Realize for a filled cfg.
func (r *Runner) realize(cfg Config) *Population {
	eng := mc.New(r.g, cfg.Seed)
	eng.Workers = cfg.Workers
	eng.OnRealize = cfg.onRealize
	var src mc.Source = eng
	if cfg.Pass == nil && cfg.ChipCacheMB > 0 && eng.PopulationBytes(cfg.Samples) <= int64(cfg.ChipCacheMB)<<20 {
		src = eng.Materialize(cfg.Samples)
	}
	return &Population{r: r, seed: cfg.Seed, samples: cfg.Samples, src: src}
}

// Run executes the full three-step flow (paper Fig. 3) on the Runner's
// circuit; see Run (package level) for the flow description. Results are
// deterministic in cfg regardless of pool reuse or concurrent callers.
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.RunOn(nil, cfg)
}

// RunOn is Run over a population from Realize, which must come from this
// Runner with cfg's Seed and Samples; a nil pop realizes one for the call.
// The result is byte-identical to Run(cfg).
func (r *Runner) RunOn(pop *Population, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if pop == nil {
		pop = r.realize(cfg)
	} else if pop.r != r || pop.seed != cfg.Seed || pop.samples != cfg.Samples {
		return nil, fmt.Errorf("insertion: population of seed %d × %d samples does not match the flow's seed %d × %d samples on this runner",
			pop.seed, pop.samples, cfg.Seed, cfg.Samples)
	}
	src := pop.src
	res := &Result{Cfg: cfg}
	res.Stats.Samples = cfg.Samples

	// ---------- Step 1: floating lower bounds (§III-A1, III-A3) ----------
	s1, err := r.runPass(src, cfg, PassSpec{Kind: PassFloating})
	if err != nil {
		return nil, err
	}
	res.Stats.InfeasibleStep1 = s1.infeasible
	res.Stats.SelfLoopFailures = s1.selfLoop
	res.Stats.ZeroViolation = s1.zeroViolation
	res.Stats.TruncatedComps = s1.truncated
	res.Stats.TuneCountStep1 = s1.counts
	res.Stats.ValuesStep1 = s1.values

	// ---------- Pruning through step-2 inputs (§III-A2 … §III-B1) ----------
	st2, err := r.deriveStepTwo(src, cfg, s1)
	if err != nil {
		return nil, err
	}
	kept := st2.kept
	lower := st2.lower
	res.Stats.KeptFFs = st2.kept
	res.Stats.PrunedFFs = st2.pruned
	res.Stats.MissingFrac = st2.missingFrac
	res.Stats.SkippedB1 = st2.skippedB1

	// ---------- Step 2: fixed bounds (§III-B1, III-B2) ----------
	s2, err := r.runPass(src, cfg, PassSpec{Kind: PassFixed, Allowed: st2.kept, Lower: st2.lower, Center: st2.center})
	if err != nil {
		return nil, err
	}
	res.Stats.InfeasibleStep2 = s2.infeasible + s2.selfLoop
	res.Stats.ValuesStep2 = s2.values

	// ---------- Final ranges (§III-B2, Fig. 5c) ----------
	step := cfg.Spec.Step()
	for _, ff := range kept {
		vals := s2.values[ff]
		if len(vals) == 0 {
			continue // never used with fixed windows: no buffer needed
		}
		lo, hi := vals[0], vals[0]
		sum := 0.0
		for _, v := range vals {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			sum += v
		}
		// The range must allow the neutral setting x=0.
		lo = math.Min(lo, 0)
		hi = math.Max(hi, 0)
		res.Buffers = append(res.Buffers, Buffer{
			FF:         ff,
			Lower:      lower[ff],
			Lo:         lo,
			Hi:         hi,
			RangeSteps: int(math.Round((hi - lo) / step)),
			Uses:       len(vals),
			Avg:        sum / float64(len(vals)),
		})
	}
	sort.Slice(res.Buffers, func(i, j int) bool { return res.Buffers[i].FF < res.Buffers[j].FF })

	// ---------- Step 3: grouping (§III-C) ----------
	if cfg.NoGrouping {
		for _, b := range res.Buffers {
			res.Groups = append(res.Groups, Group{FFs: []int{b.FF}, Lo: b.Lo, Hi: b.Hi, Uses: b.Uses})
		}
		res.Groups = capGroups(res.Groups, cfg.MaxBuffers)
		return res, nil
	}
	// Sample-aligned tuning vectors for the correlation of §III-C.
	dense := make(map[int][]float64, len(res.Buffers))
	for _, b := range res.Buffers {
		dense[b.FF] = make([]float64, cfg.Samples)
	}
	for k, tns := range s2.perSample {
		for _, tn := range tns {
			if v, ok := dense[tn.FF]; ok {
				v[k] = tn.Val
			}
		}
	}
	res.Groups = groupBuffers(res.Buffers, dense, cfg, r.pl)
	return res, nil
}
