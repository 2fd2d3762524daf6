// Package repro's root benchmark harness regenerates every quantitative
// artifact of the paper as testing.B benchmarks:
//
//   - BenchmarkTable1/<circuit>/<target> — one bench per Table I cell
//     group: runs the full flow and reports Nb, Ab, Yo, Y and Yi as custom
//     metrics (the wall time per iteration is the paper's T(s) column).
//   - BenchmarkFig4Pruning — the pruning statistics behind Fig. 4.
//   - BenchmarkFig5Concentration — the tuning-value spread before/after
//     concentration (Fig. 5's three panels as sd metrics).
//   - BenchmarkAblation* — the design-choice ablations called out in
//     DESIGN.md (concentration, pruning, grouping thresholds, discrete
//     step count, sample budget).
//   - BenchmarkBaseline* — sampling-based flow vs top-k criticality and
//     random placement at equal buffer budget.
//   - Benchmark<Substrate> — microbenchmarks of the hot substrates (LP,
//     MILP, difference constraints, SSTA, chip sampling).
//
// Sample budgets are reduced relative to the paper's 10 000 so the whole
// suite runs in minutes; cmd/table1 -samples 10000 reproduces the full-size
// run. Benchmarks use fixed seeds, so reported metrics are stable.
package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cells"
	"repro/internal/ckt"
	"repro/internal/diffcon"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/lp"
	"repro/internal/mc"
	"repro/internal/milp"
	"repro/internal/shard/wire"
	"repro/internal/ssta"
	"repro/internal/stat"
	"repro/internal/timing"
	"repro/internal/variation"
	"repro/internal/yield"
)

// benchCache holds prepared benchmarks so multiple benchmarks of the same
// circuit don't redo SSTA and period estimation.
var benchCache sync.Map

func prepared(b *testing.B, name string) *expt.Bench {
	b.Helper()
	if v, ok := benchCache.Load(name); ok {
		return v.(*expt.Bench)
	}
	bench, err := expt.PreparePreset(name, expt.Options{PeriodSamples: 2000})
	if err != nil {
		b.Fatal(err)
	}
	benchCache.Store(name, bench)
	return bench
}

// table1Samples scales the per-row insertion budget: the big circuits get
// fewer samples so the suite stays bounded; shapes are unaffected.
func table1Samples(ns int) int {
	switch {
	case ns <= 700:
		return 400
	case ns <= 1800:
		return 250
	default:
		return 150
	}
}

// BenchmarkTable1 regenerates Table I: every circuit × period target.
func BenchmarkTable1(b *testing.B) {
	for _, p := range gen.Presets {
		for _, tgt := range expt.Targets {
			b.Run(fmt.Sprintf("%s/%s", p.Name, tgt), func(b *testing.B) {
				bench := prepared(b, p.Name)
				var last expt.Row
				for i := 0; i < b.N; i++ {
					row, err := expt.RunRow(bench, tgt, expt.RowConfig{
						InsertSamples: table1Samples(p.FFs),
						EvalSamples:   2000,
						Seed:          0xF00D,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = row
				}
				b.ReportMetric(float64(last.Nb), "Nb")
				b.ReportMetric(last.Ab, "Ab_steps")
				b.ReportMetric(last.Yo, "Yo_%")
				b.ReportMetric(last.Y, "Y_%")
				b.ReportMetric(last.Yi, "Yi_points")
			})
		}
	}
}

// BenchmarkFig4Pruning reports how many tuned FFs the §III-A2 rule prunes.
func BenchmarkFig4Pruning(b *testing.B) {
	bench := prepared(b, "s9234")
	var kept, pruned, touched int
	for i := 0; i < b.N; i++ {
		row, err := expt.RunRow(bench, expt.MuT, expt.RowConfig{
			InsertSamples: 400, EvalSamples: 100, Seed: 0xF00D,
		})
		if err != nil {
			b.Fatal(err)
		}
		kept = len(row.Insert.Stats.KeptFFs)
		pruned = len(row.Insert.Stats.PrunedFFs)
		touched = len(expt.Fig4Data(row.Insert))
	}
	b.ReportMetric(float64(touched), "tuned_FFs")
	b.ReportMetric(float64(pruned), "pruned")
	b.ReportMetric(float64(kept), "kept")
}

// BenchmarkFig5Concentration reports the tuning-value spread of the most
// used buffer after step 1 vs step 2 — the visual story of Fig. 5.
func BenchmarkFig5Concentration(b *testing.B) {
	bench := prepared(b, "s9234")
	var sd1, sd2, rangeSteps float64
	for i := 0; i < b.N; i++ {
		row, err := expt.RunRow(bench, expt.MuT, expt.RowConfig{
			InsertSamples: 400, EvalSamples: 100, Seed: 0xF00D,
		})
		if err != nil {
			b.Fatal(err)
		}
		s1, s2, ok := expt.Fig5Data(row.Insert, -1)
		if !ok {
			b.Fatal("no buffer data")
		}
		_, sd1 = stat.MeanStd(s1.Values)
		_, sd2 = stat.MeanStd(s2.Values)
		for _, buf := range row.Insert.Buffers {
			if buf.FF == s1.FF {
				rangeSteps = float64(buf.RangeSteps)
			}
		}
	}
	b.ReportMetric(sd1, "sd_step1_ps")
	b.ReportMetric(sd2, "sd_step2_ps")
	b.ReportMetric(rangeSteps, "final_range_steps")
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md).
// ---------------------------------------------------------------------------

func runAblation(b *testing.B, bench *expt.Bench, mutate func(*insertion.Config)) (nb int, ab, yi float64) {
	b.Helper()
	T := bench.PeriodFor(expt.MuT)
	cfg := insertion.Config{T: T, Samples: 400, Seed: 0xF00D}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := insertion.Run(bench.Graph, bench.Placement, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := yield.NewEvaluator(bench.Graph, res.Cfg.Spec, res.Groups)
	if err != nil {
		b.Fatal(err)
	}
	rep := yield.Evaluate(ev, mc.New(bench.Graph, 0x1F00D), 2000, T)
	return res.NumPhysicalBuffers(), res.AvgRangeSteps(), rep.Improvement()
}

// BenchmarkAblationConcentration compares the flow with and without the
// concentration step (paper objective (19)).
func BenchmarkAblationConcentration(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			bench := prepared(b, "s9234")
			var nb int
			var ab, yi float64
			for i := 0; i < b.N; i++ {
				nb, ab, yi = runAblation(b, bench, func(c *insertion.Config) { c.NoConcentration = off })
			}
			b.ReportMetric(float64(nb), "Nb")
			b.ReportMetric(ab, "Ab_steps")
			b.ReportMetric(yi, "Yi_points")
		})
	}
}

// BenchmarkAblationPruning compares runtime and buffer count with the
// §III-A2 pruning disabled.
func BenchmarkAblationPruning(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			bench := prepared(b, "s9234")
			var nb int
			var yi float64
			for i := 0; i < b.N; i++ {
				nb, _, yi = runAblation(b, bench, func(c *insertion.Config) { c.NoPruning = off })
			}
			b.ReportMetric(float64(nb), "Nb")
			b.ReportMetric(yi, "Yi_points")
		})
	}
}

// BenchmarkAblationSteps sweeps the discrete step count (the paper fixes
// 20 after [4]); fewer steps = coarser grid = cheaper buffers, lower yield.
func BenchmarkAblationSteps(b *testing.B) {
	for _, steps := range []int{8, 20, 32} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			bench := prepared(b, "s9234")
			T := bench.PeriodFor(expt.MuT)
			var yi float64
			for i := 0; i < b.N; i++ {
				_, _, yi = runAblation(b, bench, func(c *insertion.Config) {
					c.Spec = insertion.BufferSpec{MaxRange: T / 8, Steps: steps}
				})
			}
			b.ReportMetric(yi, "Yi_points")
		})
	}
}

// BenchmarkAblationSamples sweeps the Monte Carlo budget |M|: buffer
// locations stabilize well below the paper's 10 000.
func BenchmarkAblationSamples(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			bench := prepared(b, "s9234")
			var nb int
			var yi float64
			for i := 0; i < b.N; i++ {
				nb, _, yi = runAblation(b, bench, func(c *insertion.Config) { c.Samples = n })
			}
			b.ReportMetric(float64(nb), "Nb")
			b.ReportMetric(yi, "Yi_points")
		})
	}
}

// BenchmarkAblationGroupingThreshold sweeps rt (paper: 0.8).
func BenchmarkAblationGroupingThreshold(b *testing.B) {
	for _, rt := range []float64{0.6, 0.8, 0.95} {
		b.Run(fmt.Sprintf("rt=%.2f", rt), func(b *testing.B) {
			bench := prepared(b, "s9234")
			var nb int
			var yi float64
			for i := 0; i < b.N; i++ {
				nb, _, yi = runAblation(b, bench, func(c *insertion.Config) { c.CorrThreshold = rt })
			}
			b.ReportMetric(float64(nb), "Nb")
			b.ReportMetric(yi, "Yi_points")
		})
	}
}

// BenchmarkBaselineComparison measures the paper's flow against top-k
// criticality and random placement at the same physical buffer budget.
func BenchmarkBaselineComparison(b *testing.B) {
	bench := prepared(b, "s9234")
	T := bench.PeriodFor(expt.MuT)
	res, err := insertion.Run(bench.Graph, bench.Placement, insertion.Config{T: T, Samples: 400, Seed: 0xF00D})
	if err != nil {
		b.Fatal(err)
	}
	nb := len(res.Groups)
	spec := res.Cfg.Spec
	strategies := map[string][]insertion.Group{
		"sampling": res.Groups,
		"topk":     baseline.TopK(bench.Graph, spec, T, nb),
		"random":   baseline.RandomK(bench.Graph, spec, nb, 5),
		"everyFF":  baseline.EveryFF(bench.Graph, spec),
	}
	for _, name := range []string{"sampling", "topk", "random", "everyFF"} {
		b.Run(name, func(b *testing.B) {
			groups := strategies[name]
			ev, err := yield.NewEvaluator(bench.Graph, spec, groups)
			if err != nil {
				b.Fatal(err)
			}
			var yi float64
			for i := 0; i < b.N; i++ {
				rep := yield.Evaluate(ev, mc.New(bench.Graph, 0x1F00D), 2000, T)
				yi = rep.Improvement()
			}
			b.ReportMetric(float64(len(groups)), "Nb")
			b.ReportMetric(yi, "Yi_points")
		})
	}
}

// BenchmarkAblationSpatialRegions compares the single-region die (the
// paper's setting) with a 4-region spatially-partitioned die: within-die
// independence decorrelates paths, changing σT and the buffer picture.
func BenchmarkAblationSpatialRegions(b *testing.B) {
	for _, regions := range []int{1, 4} {
		b.Run(fmt.Sprintf("regions=%d", regions), func(b *testing.B) {
			bench, err := expt.PreparePreset("s9234", expt.Options{PeriodSamples: 2000, Regions: regions})
			if err != nil {
				b.Fatal(err)
			}
			var nb int
			var yi float64
			for i := 0; i < b.N; i++ {
				nb, _, yi = runAblation(b, bench, nil)
			}
			b.ReportMetric(bench.Period.Sigma/bench.Period.Mu*100, "sigmaT_rel_%")
			b.ReportMetric(float64(nb), "Nb")
			b.ReportMetric(yi, "Yi_points")
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate microbenchmarks.
// ---------------------------------------------------------------------------

// BenchmarkLPSolve measures the simplex on a buffer-insertion-shaped LP.
func BenchmarkLPSolve(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem()
		n := 12
		for v := 0; v < n; v++ {
			p.AddVar(-100, 100, 1, "x")
		}
		for v := 0; v < n-1; v++ {
			p.AddRow(lp.LE, float64(5*v-20), lp.T(v, 1), lp.T(v+1, -1))
			p.AddRow(lp.LE, float64(30-v), lp.T(v+1, 1), lp.T(v, -1))
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPSolveWarm measures the simplex on the same LP through a reused
// workspace — the steady-state path of the Monte Carlo solve loop.
func BenchmarkLPSolveWarm(b *testing.B) {
	p := lp.NewProblem()
	n := 12
	for v := 0; v < n; v++ {
		p.AddVar(-100, 100, 1, "x")
	}
	for v := 0; v < n-1; v++ {
		p.AddRow(lp.LE, float64(5*v-20), lp.T(v, 1), lp.T(v+1, -1))
		p.AddRow(lp.LE, float64(30-v), lp.T(v+1, 1), lp.T(v, -1))
	}
	var ws lp.Workspace
	if _, err := p.SolveWS(&ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveWS(&ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMILPMinCount measures the per-sample min-buffer ILP shape.
func BenchmarkMILPMinCount(b *testing.B) {
	build := func() *milp.Problem {
		p := milp.NewProblem()
		const n = 8
		var xs, cs [n]int
		for v := 0; v < n; v++ {
			xs[v] = p.AddVar(milp.Continuous, -50, 50, 0, "x")
			cs[v] = p.AddVar(milp.Binary, 0, 1, 1, "c")
			p.Indicator(xs[v], cs[v], 50)
		}
		for v := 0; v < n-1; v++ {
			p.AddRow(lp.LE, float64(-10+v), lp.T(xs[v], 1), lp.T(xs[v+1], -1))
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := build()
		if _, err := p.Solve(milp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMILPMinCountWarm measures the same ILP rebuilt into a resettable
// problem and solved through a reused arena — as the insertion tests'
// two-ILP oracle treats each violation component.
func BenchmarkMILPMinCountWarm(b *testing.B) {
	p := milp.NewProblem()
	var arena milp.Arena
	build := func() {
		p.Reset()
		const n = 8
		var xs, cs [n]int
		for v := 0; v < n; v++ {
			xs[v] = p.AddVar(milp.Continuous, -50, 50, 0, "x")
			cs[v] = p.AddVar(milp.Binary, 0, 1, 1, "c")
			p.Indicator(xs[v], cs[v], 50)
		}
		for v := 0; v < n-1; v++ {
			p.AddRow(lp.LE, float64(-10+v), lp.T(xs[v], 1), lp.T(xs[v+1], -1))
		}
	}
	build()
	if _, err := p.SolveArena(&arena, milp.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
		if _, err := p.SolveArena(&arena, milp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleSolve measures one full step-1 + step-2 per-sample solve —
// component discovery, the support-enumeration tuning count and the
// support projection — on a prepared s9234 preset, i.e. the actual unit of
// work the Monte Carlo loop repeats ~10⁴ times per Table-I row.
func BenchmarkSampleSolve(b *testing.B) {
	bench := prepared(b, "s9234")
	sb, err := insertion.NewSampleBench(bench.Graph, insertion.Config{
		T: bench.PeriodFor(expt.MuT), Samples: 400, Seed: 0xF00D,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sb.Solve() // warm all solver scratch and pools to steady state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Solve()
	}
}

// BenchmarkDiffconFeasibility measures the per-chip yield check.
func BenchmarkDiffconFeasibility(b *testing.B) {
	sys := diffcon.NewIntSystem(20)
	for i := 0; i < 19; i++ {
		sys.Add(i, i+1, int64(3+i%5))
		sys.Add(i+1, i, 2)
	}
	for i := 0; i < 20; i++ {
		sys.AddUpper(i, 10)
		sys.AddLower(i, -10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sys.Feasible() {
			b.Fatal("should be feasible")
		}
	}
}

// BenchmarkDiffconFeasibilityWarm measures the same check through a
// resettable system and a reused solver — the sweep-probe steady state.
func BenchmarkDiffconFeasibilityWarm(b *testing.B) {
	sys := diffcon.NewIntSystem(20)
	for i := 0; i < 20; i++ {
		sys.AddUpper(i, 10)
		sys.AddLower(i, -10)
	}
	base := sys.NumConstraints()
	fill := func() {
		sys.Truncate(base)
		for i := 0; i < 19; i++ {
			sys.Add(i, i+1, int64(3+i%5))
			sys.Add(i+1, i, 2)
		}
	}
	var sv diffcon.IntSolver
	fill()
	if !sv.Feasible(sys) {
		b.Fatal("should be feasible")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		if !sv.Feasible(sys) {
			b.Fatal("should be feasible")
		}
	}
}

// yieldSweepSetup prepares the sweep-vs-per-period comparison: the s9234
// flow's evaluator and a 10-point period grid across [µT, µT+2σ].
func yieldSweepSetup(b *testing.B) (*yield.Evaluator, *expt.Bench, []float64) {
	b.Helper()
	bench := prepared(b, "s9234")
	T := bench.PeriodFor(expt.MuTPlusSigma)
	res, err := insertion.Run(bench.Graph, bench.Placement, insertion.Config{T: T, Samples: 400, Seed: 0xF00D})
	if err != nil {
		b.Fatal(err)
	}
	ev, err := yield.NewEvaluator(bench.Graph, res.Cfg.Spec, res.Groups)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := bench.PeriodFor(expt.MuT), bench.PeriodFor(expt.MuTPlus2Sigma)
	Ts := make([]float64, 10)
	for i := range Ts {
		Ts[i] = lo + (hi-lo)*float64(i)/float64(len(Ts)-1)
	}
	return ev, bench, Ts
}

// BenchmarkYieldSweep measures the batched sweep: 2000 chips realized once
// answer all 10 periods.
func BenchmarkYieldSweep(b *testing.B) {
	ev, bench, Ts := yieldSweepSetup(b)
	b.ResetTimer()
	var rep yield.SweepReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = yield.EvaluateSweep(ev, mc.New(bench.Graph, 0x1F00D), 2000, Ts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.At(0).Improvement(), "Yi_at_muT_points")
}

// BenchmarkYieldSweepReplay measures the sweep kernel alone: the same plan
// and 10-period grid as BenchmarkYieldSweep, replayed over a population of
// 2000 chips materialized before the clock starts, so no realization is
// timed.
func BenchmarkYieldSweepReplay(b *testing.B) {
	ev, bench, Ts := yieldSweepSetup(b)
	pop := mc.New(bench.Graph, 0x1F00D).Materialize(2000)
	b.ResetTimer()
	var rep yield.SweepReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = yield.EvaluateSweep(ev, pop, 2000, Ts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.At(0).Improvement(), "Yi_at_muT_points")
}

// BenchmarkYieldPerPeriod is the pre-batching baseline: one Evaluate call —
// and one fresh chip population — per period. BenchmarkYieldSweep must beat
// it by ≥2×; the two report byte-identical yields.
func BenchmarkYieldPerPeriod(b *testing.B) {
	ev, bench, Ts := yieldSweepSetup(b)
	b.ResetTimer()
	var rep yield.Report
	for i := 0; i < b.N; i++ {
		for _, T := range Ts {
			rep = yield.Evaluate(ev, mc.New(bench.Graph, 0x1F00D), 2000, T)
		}
	}
	b.ReportMetric(rep.Improvement(), "Yi_at_last_T_points")
}

// BenchmarkAdaptiveYield measures the sequential stopping rule at an easy
// point (µT+3σ, where both yields are ≈ 1): chips arrive in escalating
// stratified waves until the yield is known to ±0.005 at 95% confidence,
// which an easy point reaches a few waves in — under a tenth of the
// 40000-chip nominal budget. Compare chips_used (and time/op) against
// BenchmarkYieldSweep's fixed 2000-chip pass; hard points degrade
// gracefully toward the cap instead.
func BenchmarkAdaptiveYield(b *testing.B) {
	ev, bench, _ := yieldSweepSetup(b)
	easy := bench.Period.Mu + 3*bench.Period.Sigma
	b.ResetTimer()
	var reps []yield.AdaptiveReport
	for i := 0; i < b.N; i++ {
		sw, err := yield.NewSweepEvaluator(ev, []float64{easy})
		if err != nil {
			b.Fatal(err)
		}
		reps, err = yield.EvaluateManyAdaptive(mc.New(bench.Graph, 0x1F00D), 40000,
			yield.Precision{Eps: 0.005, Conf: 0.95}, sw)
		if err != nil {
			b.Fatal(err)
		}
		if !reps[0].Met {
			b.Fatal("easy point must meet ±0.005 before the cap")
		}
	}
	rep := reps[0]
	b.ReportMetric(float64(rep.SamplesUsed), "chips_used")
	b.ReportMetric(float64(rep.Waves), "waves")
	b.ReportMetric(rep.Tuned[0].Estimate*100, "Y_%")
	b.ReportMetric(rep.Tuned[0].HalfWidth*100, "hw_points")
}

// sstaAnalyzer builds the s9234 circuit and a fresh analyzer for the SSTA
// benchmarks.
func sstaAnalyzer(b *testing.B) (*ckt.Circuit, *ssta.Analyzer) {
	b.Helper()
	p, _ := gen.PresetByName("s9234")
	c, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		b.Fatal(err)
	}
	return c, a
}

// BenchmarkSSTAPairDelays measures the warm canonical SSTA pass on s9234:
// the arena is filled once before the clock starts, so the loop measures
// steady-state refills, which must stay (near) allocation-free.
func BenchmarkSSTAPairDelays(b *testing.B) {
	_, a := sstaAnalyzer(b)
	if pairs := a.PairDelays(); len(pairs) == 0 {
		b.Fatal("no pairs")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pairs := a.PairDelays(); len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkSSTAPrepareCold measures the full cold prepare cost of the SSTA
// stage on s9234 — analyzer construction (validation, topo sort, skeleton
// precompute, arena allocation) plus the first full propagation. This is
// the serve-side cache-miss cost the incremental rework targets.
func BenchmarkSSTAPrepareCold(b *testing.B) {
	p, _ := gen.PresetByName("s9234")
	c, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := variation.NewModel(cells.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := ssta.New(c, m)
		if err != nil {
			b.Fatal(err)
		}
		if pairs := a.PairDelays(); len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkSSTARepropagateCone measures the incremental re-analysis after
// a single what-if edit on s9234: one AddDelay plus the cone-limited
// repropagation. The acceptance bar is ≥10× cheaper than a full
// PairDelays; the warm path must not regress on allocs/op (benchcmp gate).
func BenchmarkSSTARepropagateCone(b *testing.B) {
	c, a := sstaAnalyzer(b)
	a.PairDelays()
	// Edit the driver of some capture D pin — a guaranteed on-path gate.
	edit := -1
	for _, f := range c.FFs() {
		fi := c.Nodes[f].Fanin
		if len(fi) > 0 && c.Nodes[fi[0]].Kind.IsGate() {
			edit = fi[0]
			break
		}
	}
	if edit < 0 {
		b.Fatal("no gate-driven capture in s9234")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AddDelay(edit, 1)
		if pairs := a.RepropagateCone(edit); len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkChipRealization measures virtual-chip sampling throughput
// (one chip = one manufactured die's realized delays) through the engine's
// per-chip path: one op re-seeds chip k's stream, fills its deviates and
// runs the realization kernel, on a single worker.
func BenchmarkChipRealization(b *testing.B) {
	bench := prepared(b, "s9234")
	e := mc.New(bench.Graph, 1)
	e.Workers = 1
	b.ResetTimer()
	e.ForEachRangeBatch(0, b.N, func(int, *timing.Chip) {})
}

// BenchmarkWhatIfPeriod measures one what-if (expt.Bench.WhatIf: fork,
// cone repropagation, graph build and period distribution) on a generated
// circuit of perfbench's serve_prepare_insert size, cycling through 20
// fixed edit sets of 1–3 gates each. "record" runs on the prepared bench,
// which revises the period from its record; "full" runs on the same bench
// restored from its snapshot, which has no record and realizes every chip.
func BenchmarkWhatIfPeriod(b *testing.B) {
	c, err := gen.Generate(gen.Config{NumFFs: 150, NumGates: 2000, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	prep, err := expt.Prepare(c, expt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := prep.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	restored, err := expt.RestoreBench(c, expt.Options{}, snap)
	if err != nil {
		b.Fatal(err)
	}
	var gates []string
	for _, nd := range c.Nodes {
		if nd.Kind.IsGate() {
			gates = append(gates, nd.Name)
		}
	}
	rng := rand.New(rand.NewPCG(7, 8))
	sets := make([][]expt.Edit, 20)
	for i := range sets {
		for e := 0; e < 1+rng.IntN(3); e++ {
			sets[i] = append(sets[i], expt.Edit{Node: gates[rng.IntN(len(gates))], DeltaPS: float64(10+rng.IntN(50)) / 2})
		}
	}
	for _, v := range []struct {
		name  string
		bench *expt.Bench
	}{{"record", prep}, {"full", restored}} {
		b.Run(v.name, func(b *testing.B) {
			full := 0
			for i := 0; i < b.N; i++ {
				wr, err := v.bench.WhatIf(sets[i%len(sets)])
				if err != nil {
					b.Fatal(err)
				}
				full += wr.Chips.Full
			}
			b.ReportMetric(float64(full)/float64(b.N), "fullchips/op")
		})
	}
}

// BenchmarkPeriodRecord measures what keeping a period record costs: the
// period Monte Carlo on s9234 (2 000 chips, one worker) as
// PeriodDistribution runs it ("plain") and as RecordPeriod runs it while
// recording ("record").
func BenchmarkPeriodRecord(b *testing.B) {
	bench := prepared(b, "s9234")
	e := mc.New(bench.Graph, 1)
	e.Workers = 1
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.PeriodDistribution(2000)
		}
	})
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.RecordPeriod(2000)
		}
	})
}

// wireBenchBatch builds a deterministic shard-pass payload of realistic
// shape for the wire-codec benchmarks: 512 sample outcomes (about one
// dispatched range of a 2000-sample pass) with a mixed tuning profile,
// plus 8 sweep tallies of 64 periods each.
func wireBenchBatch() ([]insertion.SampleOutcome, []yield.SweepTally) {
	rng := rand.New(rand.NewPCG(42, 7))
	outs := make([]insertion.SampleOutcome, 512)
	for i := range outs {
		o := &outs[i]
		o.Feasible = i%5 != 0
		o.NK = i % 4
		if o.Feasible {
			tuned := make([]insertion.Tuning, i%6)
			for j := range tuned {
				tuned[j] = insertion.Tuning{FF: j, Val: rng.NormFloat64() * 50}
			}
			o.Tuned = tuned
		}
	}
	tallies := make([]yield.SweepTally, 8)
	for i := range tallies {
		fz := make([]int, 64)
		ft := make([]int, 64)
		for j := range fz {
			fz[j] = rng.IntN(100)
			ft[j] = rng.IntN(100)
		}
		tallies[i] = yield.SweepTally{FirstZero: fz, FirstTuned: ft}
	}
	return outs, tallies
}

// BenchmarkShardWireEncode measures the binary encode of one shard-pass
// payload into a reused buffer. Gated: the warm encode must stay at zero
// allocs/op (the //contract:allocfree annotation on the codecs, measured).
func BenchmarkShardWireEncode(b *testing.B) {
	outs, tallies := wireBenchBatch()
	var buf []byte
	buf = insertion.AppendOutcomes(buf[:0], outs) // pre-grow outside the clock
	buf = yield.AppendTallies(buf, tallies)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = insertion.AppendOutcomes(buf[:0], outs)
		buf = yield.AppendTallies(buf, tallies)
	}
}

// BenchmarkShardWireDecode measures the binary decode of the same payload
// into reused batch arenas. Gated at zero warm allocs/op like the encode.
func BenchmarkShardWireDecode(b *testing.B) {
	outs, tallies := wireBenchBatch()
	outFrame := insertion.AppendOutcomes(nil, outs)
	talFrame := yield.AppendTallies(nil, tallies)
	var ob insertion.OutcomeBuf
	var tb yield.TallyBuf
	b.SetBytes(int64(len(outFrame) + len(talFrame)))
	decode := func() {
		or := wire.NewReader(outFrame)
		if ob.Decode(&or) == nil || or.Done() != nil {
			b.Fatal("outcome decode failed")
		}
		tr := wire.NewReader(talFrame)
		if tb.Decode(&tr) == nil || tr.Done() != nil {
			b.Fatal("tally decode failed")
		}
	}
	decode() // warm the arenas outside the clock
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}
