package timing_test

import (
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/mc"
	"repro/internal/ssta"
	"repro/internal/timing"
	"repro/internal/variation"
)

// reportGraph builds a skewed timing graph for the report tests (external
// test package: the internal buildGraph helper is unavailable here).
func reportGraph(t *testing.T, ffs, gates int, seed uint64) *timing.Graph {
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
	return g.WithSkew(g.HoldSafeSkews(timing.SkewSigma(g.Pairs, 0.03), seed+77))
}

func TestSlackReportOrdering(t *testing.T) {
	g := reportGraph(t, 30, 150, 51)
	ps := mc.New(g, 1).PeriodDistribution(800)
	rep := g.SlackReport(ps.Mu)
	if len(rep) != len(g.Pairs) {
		t.Fatal("report must cover every pair")
	}
	for i := 1; i < len(rep); i++ {
		if rep[i].FailProb > rep[i-1].FailProb+1e-12 {
			t.Fatal("report not sorted by failure probability")
		}
	}
	// At µT the worst pair must have substantial failure probability.
	if rep[0].FailProb < 0.1 {
		t.Fatalf("worst pair fail prob %v at µT", rep[0].FailProb)
	}
	// Fields consistent.
	for _, r := range rep[:5] {
		if r.FailProb > 0.5 && r.MeanSlack > 0 {
			t.Fatalf("fail prob %v with positive mean slack %v", r.FailProb, r.MeanSlack)
		}
		if r.StdSlack < 0 {
			t.Fatal("negative sigma")
		}
	}
}

func TestSlackReportMonotoneInT(t *testing.T) {
	g := reportGraph(t, 20, 100, 53)
	ps := mc.New(g, 1).PeriodDistribution(500)
	for p := 0; p < len(g.Pairs); p++ {
		tight := g.PairReportAt(p, ps.Mu*0.9)
		loose := g.PairReportAt(p, ps.Mu*1.2)
		if loose.FailProb > tight.FailProb+1e-12 {
			t.Fatalf("pair %d: fail prob must shrink with T", p)
		}
		if loose.MeanSlack <= tight.MeanSlack {
			t.Fatalf("pair %d: slack must grow with T", p)
		}
		// Hold margin is period independent.
		if loose.HoldMargin != tight.HoldMargin {
			t.Fatal("hold margin must not depend on T")
		}
	}
}

func TestCriticalPairs(t *testing.T) {
	g := reportGraph(t, 25, 120, 55)
	ps := mc.New(g, 1).PeriodDistribution(500)
	top3 := g.CriticalPairs(ps.Mu, 3)
	if len(top3) != 3 {
		t.Fatalf("topK = %d", len(top3))
	}
	all := g.CriticalPairs(ps.Mu, 10_000)
	if len(all) != len(g.Pairs) {
		t.Fatal("topK clamp")
	}
	if top3[0].Pair != all[0].Pair {
		t.Fatal("topK must be a prefix of the full report")
	}
}
