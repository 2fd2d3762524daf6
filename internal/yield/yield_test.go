package yield

import (
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/placement"
	"repro/internal/ssta"
	"repro/internal/stat"
	"repro/internal/timing"
	"repro/internal/variation"
)

func buildBench(t *testing.T, ffs, gates int, seed uint64) (*timing.Graph, mc.PeriodStats, *placement.Placement) {
	t.Helper()
	c, err := gen.Generate(gen.Config{NumFFs: ffs, NumGates: gates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	g := timing.Build(a, nil)
	sk := g.HoldSafeSkews(timing.SkewSigma(g.Pairs, 0.03), seed+77)
	g = g.WithSkew(sk)
	ps := mc.New(g, 555).PeriodDistribution(2000)
	pl := placement.Grid(g.NS, placement.AdjFromPairs(g.NS, g.FFPairIDs()))
	return g, ps, pl
}

func TestYieldImprovementAtMu(t *testing.T) {
	// The paper's headline: at T = µT the original yield is ≈50 % and the
	// inserted buffers lift it substantially (17–36 points in Table I).
	g, ps, pl := buildBench(t, 40, 220, 101)
	cfg := insertion.Config{T: ps.Mu, Samples: 400, Seed: 777}
	res, err := insertion.Run(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(g, res.Cfg.Spec, res.Groups)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh out-of-sample chips (different seed universe).
	testEng := mc.New(g, 20202)
	rep := Evaluate(ev, testEng, 3000, ps.Mu)
	if math.Abs(rep.Original.Rate()-0.5) > 0.06 {
		t.Fatalf("Yo at µT = %v, want ≈0.5", rep.Original.Rate())
	}
	if rep.Improvement() < 8 {
		t.Fatalf("yield improvement %.2f points too small (Y=%v Yo=%v, %d buffers)",
			rep.Improvement(), rep.Tuned.Percent(), rep.Original.Percent(), len(res.Groups))
	}
	t.Logf("Yo=%.2f%% Y=%.2f%% Yi=%.2f points with %d buffers (avg range %.1f steps)",
		rep.Original.Percent(), rep.Tuned.Percent(), rep.Improvement(),
		res.NumPhysicalBuffers(), res.AvgRangeSteps())
}

func TestYieldNeverDecreases(t *testing.T) {
	// Buffers can only add feasibility: Y ≥ Yo on every sample set.
	g, ps, pl := buildBench(t, 25, 120, 103)
	res, err := insertion.Run(g, pl, insertion.Config{T: ps.Mu, Samples: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(g, res.Cfg.Spec, res.Groups)
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []float64{ps.Mu - ps.Sigma, ps.Mu, ps.Mu + ps.Sigma} {
		rep := Evaluate(ev, mc.New(g, 42), 800, T)
		if rep.Tuned.Pass < rep.Original.Pass {
			t.Fatalf("tuned yield below original at T=%v", T)
		}
	}
}

func TestEvaluatorNoBuffers(t *testing.T) {
	// With no groups the evaluator reduces to the zero-tuning check.
	g, ps, _ := buildBench(t, 15, 70, 105)
	ev, err := NewEvaluator(g, insertion.DefaultSpec(ps.Mu), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.NumVars() != 0 {
		t.Fatal("no groups, no vars")
	}
	eng := mc.New(g, 9)
	rep := Evaluate(ev, eng, 500, ps.Mu)
	if rep.Tuned.Pass != rep.Original.Pass {
		t.Fatalf("no buffers: Y (%d) must equal Yo (%d)", rep.Tuned.Pass, rep.Original.Pass)
	}
}

func TestEvaluatorValidation(t *testing.T) {
	g, ps, _ := buildBench(t, 10, 40, 107)
	spec := insertion.DefaultSpec(ps.Mu)
	s := spec.Step()
	// Misaligned window.
	if _, err := NewEvaluator(g, spec, []insertion.Group{{FFs: []int{0}, Lo: -s / 3, Hi: s}}); err == nil {
		t.Fatal("misaligned window must fail")
	}
	// Window not covering 0.
	if _, err := NewEvaluator(g, spec, []insertion.Group{{FFs: []int{0}, Lo: s, Hi: 2 * s}}); err == nil {
		t.Fatal("window excluding 0 must fail")
	}
	// FF in two groups.
	gs := []insertion.Group{
		{FFs: []int{0}, Lo: -s, Hi: s},
		{FFs: []int{0}, Lo: -s, Hi: s},
	}
	if _, err := NewEvaluator(g, spec, gs); err == nil {
		t.Fatal("duplicate FF must fail")
	}
	// FF out of range.
	if _, err := NewEvaluator(g, spec, []insertion.Group{{FFs: []int{999}, Lo: -s, Hi: s}}); err == nil {
		t.Fatal("out-of-range FF must fail")
	}
	// Bad spec.
	if _, err := NewEvaluator(g, insertion.BufferSpec{}, nil); err == nil {
		t.Fatal("invalid spec must fail")
	}
}

func TestChipFeasibleAgainstBruteForce(t *testing.T) {
	// Exactness of the grid difference system: compare against exhaustive
	// enumeration of the buffer settings on a small bench with ≤2 groups.
	g, ps, pl := buildBench(t, 12, 50, 111)
	res, err := insertion.Run(g, pl, insertion.Config{
		T: ps.Mu, Samples: 150, Seed: 13, MaxBuffers: 2,
		Spec: insertion.BufferSpec{MaxRange: ps.Mu / 8, Steps: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Skip("no buffers inserted")
	}
	ev, err := NewEvaluator(g, res.Cfg.Spec, res.Groups)
	if err != nil {
		t.Fatal(err)
	}
	step := res.Cfg.Spec.Step()
	eng := mc.New(g, 515)
	for k := 0; k < 120; k++ {
		ch := eng.Chip(k)
		got := ev.ChipFeasible(ch, ps.Mu)
		// Brute force over all grid settings of all groups.
		var x []float64
		var rec func(gi int) bool
		x = make([]float64, len(res.Groups))
		rec = func(gi int) bool {
			if gi == len(res.Groups) {
				tune := ev.TuningOf(x)
				for p := range g.Pairs {
					pr := &g.Pairs[p]
					if tune[pr.Launch]-tune[pr.Capture] > g.SetupBound(ch, p, ps.Mu)+1e-9 {
						return false
					}
					if tune[pr.Capture]-tune[pr.Launch] > g.HoldBound(ch, p)+1e-9 {
						return false
					}
				}
				return true
			}
			lo := int(math.Round(res.Groups[gi].Lo / step))
			hi := int(math.Round(res.Groups[gi].Hi / step))
			for kk := lo; kk <= hi; kk++ {
				x[gi] = float64(kk) * step
				if rec(gi + 1) {
					return true
				}
			}
			return false
		}
		want := rec(0)
		if got != want {
			t.Fatalf("chip %d: evaluator %v, brute force %v", k, got, want)
		}
	}
}

// TestOracleFeasibleBruteForce is the oracle-grade exactness test: on small
// generated circuits with hand-built groups (up to 4 groups, one shared by
// two FFs, few grid steps) it enumerates every discrete buffer setting per
// chip and asserts exact agreement with the Bellman-Ford answer.
func TestOracleFeasibleBruteForce(t *testing.T) {
	for _, seed := range []uint64{201, 202, 203} {
		g, ps, _ := buildBench(t, 10, 45, seed)
		spec := insertion.BufferSpec{MaxRange: ps.Mu / 10, Steps: 4}
		s := spec.Step()
		// Four groups over six FFs; group 2 shares one physical buffer
		// between two flip-flops (§III-C). Windows are grid-aligned, cover
		// 0, and differ in asymmetry to exercise both bound directions.
		groups := []insertion.Group{
			{FFs: []int{0}, Lo: -2 * s, Hi: 2 * s},
			{FFs: []int{1}, Lo: -4 * s, Hi: 0},
			{FFs: []int{2, 5}, Lo: -s, Hi: 3 * s},
			{FFs: []int{7}, Lo: 0, Hi: 4 * s},
		}
		ev, err := NewEvaluator(g, spec, groups)
		if err != nil {
			t.Fatal(err)
		}
		check := func(ch *timing.Chip, x []float64, T float64) bool {
			tune := ev.TuningOf(x)
			for p := range g.Pairs {
				pr := &g.Pairs[p]
				if tune[pr.Launch]-tune[pr.Capture] > g.SetupBound(ch, p, T) {
					return false
				}
				if tune[pr.Capture]-tune[pr.Launch] > g.HoldBound(ch, p) {
					return false
				}
			}
			return true
		}
		eng := mc.New(g, seed*7+1)
		feasible := 0
		for k := 0; k < 100; k++ {
			ch := eng.Chip(k)
			// Stress both sides of the curve: alternate a tight and a
			// loose period so pass and fail outcomes both occur.
			T := ps.Mu - 0.6*ps.Sigma
			if k%2 == 1 {
				T = ps.Mu + 0.5*ps.Sigma
			}
			x := make([]float64, len(groups))
			var rec func(gi int) bool
			rec = func(gi int) bool {
				if gi == len(groups) {
					return check(ch, x, T)
				}
				lo := int(math.Round(groups[gi].Lo / s))
				hi := int(math.Round(groups[gi].Hi / s))
				for kk := lo; kk <= hi; kk++ {
					x[gi] = float64(kk) * s
					if rec(gi + 1) {
						return true
					}
				}
				return false
			}
			want := rec(0)
			if got := ev.ChipFeasible(ch, T); got != want {
				t.Fatalf("seed %d chip %d: ChipFeasible=%v, brute force=%v", seed, k, got, want)
			}
			if want {
				feasible++
			}
		}
		if feasible == 0 || feasible == 100 {
			t.Fatalf("seed %d: degenerate oracle coverage (%d/100 feasible) — adjust periods",
				seed, feasible)
		}
	}
}

func TestReportImprovement(t *testing.T) {
	r := Report{
		Original: stat.Yield{Pass: 500, Total: 1000},
		Tuned:    stat.Yield{Pass: 800, Total: 1000},
	}
	if math.Abs(r.Improvement()-30) > 1e-9 {
		t.Fatalf("Yi = %v", r.Improvement())
	}
}
