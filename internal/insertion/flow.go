package insertion

import (
	"fmt"
	"math"

	"repro/internal/mc"
	"repro/internal/placement"
	"repro/internal/timing"
)

// Run executes the full three-step flow (paper Fig. 3) on a timing graph:
// step 1 locates buffers and window lower bounds with floating windows,
// step 2 re-simulates with fixed discrete windows and concentrates values
// toward their averages, step 3 groups correlated nearby buffers. pl may be
// nil, in which case grouping uses correlation only (infinite distances are
// never below the threshold, so buffers stay ungrouped unless pl is given —
// matching a flow run before placement).
//
// Run builds a one-shot Runner; callers answering repeated queries on the
// same circuit should hold a Runner and call its Run method so the warm
// solver pool survives across calls.
func Run(g *timing.Graph, pl *placement.Placement, cfg Config) (*Result, error) {
	return NewRunner(g, pl).Run(cfg)
}

// passResult aggregates one sampling pass.
type passResult struct {
	counts        []int
	values        map[int][]float64
	perSample     [][]Tuning
	nk            []int
	infeasible    int
	selfLoop      int
	zeroViolation int
	truncated     int
}

// runPass runs one full Monte Carlo repair pass described by spec: in
// parallel in this process, or — when cfg.Pass is set — through the
// distributed executor, which returns the same k-indexed outcome slice
// assembled from worker ranges. Either way the outcomes are reduced
// sequentially in k order afterward, so the aggregate statistics are
// bit-identical regardless of worker scheduling or placement. In-process
// solvers come from the Runner's warm pool via checkout/release, so a pass
// on a warm Runner allocates no solver state.
func (r *Runner) runPass(src mc.Source, cfg Config, spec PassSpec) (*passResult, error) {
	var raw []SampleOutcome
	if cfg.Pass != nil {
		var err error
		if raw, err = cfg.Pass(spec); err != nil {
			return nil, fmt.Errorf("insertion: distributed %s pass: %w", spec.Kind, err)
		}
		if len(raw) != cfg.Samples {
			return nil, fmt.Errorf("insertion: distributed %s pass returned %d outcomes, want %d", spec.Kind, len(raw), cfg.Samples)
		}
		if err := CheckOutcomes(r.g.NS, raw); err != nil {
			return nil, fmt.Errorf("insertion: distributed %s pass: %w", spec.Kind, err)
		}
	} else {
		mode, allowed, lower, center, err := r.passParams(spec)
		if err != nil {
			return nil, err
		}
		raw = r.collectRange(nil, src, cfg, mode, allowed, lower, center, 0, cfg.Samples)
	}
	return reducePass(r.g, raw), nil
}

// reducePass folds k-indexed outcomes into the pass aggregate. The fold is
// sequential in k, so values[ff] lists tuning values in sample order — the
// property that makes a merged multi-worker pass byte-identical to the
// single-process one.
func reducePass(g *timing.Graph, raw []SampleOutcome) *passResult {
	pr := &passResult{
		counts:    make([]int, g.NS),
		values:    make(map[int][]float64),
		perSample: make([][]Tuning, len(raw)),
		nk:        make([]int, len(raw)),
	}
	for k := range raw {
		out := &raw[k]
		pr.nk[k] = out.NK
		pr.truncated += out.Truncated
		switch {
		case out.SelfLoop:
			pr.selfLoop++
		case !out.Feasible:
			pr.infeasible++
		case out.NK == 0:
			pr.zeroViolation++
		}
		if out.Feasible && len(out.Tuned) > 0 {
			pr.perSample[k] = out.Tuned
			for _, tn := range out.Tuned {
				pr.counts[tn.FF]++
				pr.values[tn.FF] = append(pr.values[tn.FF], tn.Val)
			}
		}
	}
	return pr
}

// stepTwoState is everything the fixed-window pass needs, derived from the
// step-1 results. Shared by Run and the SampleBench benchmark hook so the
// benchmark exercises exactly the configuration the flow would.
type stepTwoState struct {
	kept, pruned []int
	allowed      []bool
	lower        []float64
	center       []float64
	missingFrac  float64
	skippedB1    bool
}

// deriveStepTwo turns a step-1 pass into the step-2 inputs: §III-A2 pruning
// (or the NoPruning passthrough), §III-A4 window assignment, the §III-B1
// skip rule — when too many samples tuned outside their assigned windows,
// an intermediate fixed-window pass recomputes the tuning averages — and
// the grid-snapped concentration centers.
func (r *Runner) deriveStepTwo(src mc.Source, cfg Config, s1 *passResult) (stepTwoState, error) {
	g := r.g
	var st stepTwoState
	if cfg.NoPruning {
		for ff := 0; ff < g.NS; ff++ {
			if s1.counts[ff] > 0 {
				st.kept = append(st.kept, ff)
			}
		}
	} else {
		st.kept, st.pruned = prune(g, r.adj, s1.counts, cfg)
	}
	st.lower = assignWindows(g.NS, st.kept, s1.values, cfg.Spec)
	st.allowed = make([]bool, g.NS)
	for _, ff := range st.kept {
		st.allowed[ff] = true
	}
	missing := 0
	for _, tns := range s1.perSample {
		out := false
		for _, tn := range tns {
			if !st.allowed[tn.FF] {
				out = true
				break
			}
			lo := st.lower[tn.FF]
			if tn.Val < lo-1e-9 || tn.Val > lo+cfg.Spec.MaxRange+1e-9 {
				out = true
				break
			}
		}
		if out {
			missing++
		}
	}
	st.missingFrac = float64(missing) / float64(max(1, cfg.Samples))
	st.skippedB1 = st.missingFrac < cfg.SkipRerunFrac
	// Concentration centers: average of the latest tuning values per FF.
	avgSource := s1.values
	if !st.skippedB1 {
		b1, err := r.runPass(src, cfg, PassSpec{Kind: PassFixed, Allowed: st.kept, Lower: st.lower})
		if err != nil {
			return st, err
		}
		avgSource = b1.values
	}
	st.center = gridCenters(g.NS, st.allowed, st.lower, avgSource, cfg.Spec)
	return st, nil
}

// gridCenters computes the per-FF concentration targets for step 2: the
// average of the latest tuning values, snapped to the buffer's grid so
// concentration pulls toward an achievable value.
func gridCenters(ns int, allowed []bool, lower []float64, values map[int][]float64, spec BufferSpec) []float64 {
	center := make([]float64, ns)
	step := spec.Step()
	for ff, vals := range values {
		if len(vals) > 0 && allowed[ff] {
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			c := sum / float64(len(vals))
			k := math.Round((c - lower[ff]) / step)
			k = math.Max(0, math.Min(float64(spec.Steps), k))
			center[ff] = lower[ff] + k*step
		}
	}
	return center
}

// prune implements §III-A2: drop FFs tuned in at most PruneMax samples
// unless adjacent (in the FF pair graph) to a critical FF tuned at least
// CriticalMin times. adjPairs is g.PairAdjacency(), which the Runner
// builds once.
func prune(g *timing.Graph, adjPairs [][]int, counts []int, cfg Config) (kept, pruned []int) {
	isCritical := func(ff int) bool { return counts[ff] >= cfg.CriticalMin }
	for ff := 0; ff < g.NS; ff++ {
		if counts[ff] == 0 {
			continue // never tuned: not a buffer candidate at all
		}
		if counts[ff] > cfg.PruneMax || isCritical(ff) {
			kept = append(kept, ff)
			continue
		}
		nearCritical := false
		for _, p := range adjPairs[ff] {
			pr := &g.Pairs[p]
			other := pr.Launch + pr.Capture - ff
			if other != ff && isCritical(other) {
				nearCritical = true
				break
			}
		}
		if nearCritical {
			kept = append(kept, ff)
		} else {
			pruned = append(pruned, ff)
		}
	}
	return kept, pruned
}

// assignWindows implements §III-A4: per kept FF, slide a window of width τ
// (grid-aligned, covering 0 per constraint (13)) over the step-1 tuning
// values and keep the left edge covering the most values.
func assignWindows(ns int, kept []int, values map[int][]float64, spec BufferSpec) []float64 {
	lower := make([]float64, ns)
	step := spec.Step()
	for _, ff := range kept {
		vals := values[ff]
		if len(vals) == 0 {
			continue
		}
		bestCover := -1
		bestLower := 0.0
		// Candidate left edges: −m·s for m = 0..Steps (window always
		// contains 0, satisfying r ≤ 0 ≤ r+τ).
		for m := 0; m <= spec.Steps; m++ {
			lo := -float64(m) * step
			hi := lo + spec.MaxRange
			cover := 0
			for _, v := range vals {
				if v >= lo-1e-9 && v <= hi+1e-9 {
					cover++
				}
			}
			if cover > bestCover {
				bestCover = cover
				bestLower = lo
			}
		}
		lower[ff] = bestLower
	}
	return lower
}

// String summarizes a result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("insertion: %d buffers in %d groups (avg range %.2f steps), %d/%d samples unfixable",
		len(r.Buffers), len(r.Groups), r.AvgRangeSteps(),
		r.Stats.InfeasibleStep2, r.Stats.Samples)
}
