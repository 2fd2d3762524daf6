package timing

import (
	"sort"

	"repro/internal/stat"
	"repro/internal/variation"
)

// PairReport is the statistical timing view of one register pair at a
// target period: the canonical setup slack's moments and failure
// probability, plus the hold margin. This is the per-path part of a
// statistical timing report — what a designer reads before deciding where
// tuning buffers could pay off.
type PairReport struct {
	Pair            int // index into Graph.Pairs
	Launch, Capture int
	// MeanSlack/StdSlack describe the setup slack T − (d̄ + s) + Δskew.
	MeanSlack float64
	StdSlack  float64
	// FailProb is P(setup slack < 0) under the canonical model.
	FailProb float64
	// HoldMargin is the nominal hold slack (period independent).
	HoldMargin float64
}

// setupSlack returns the canonical setup slack of pair p at period T.
func (g *Graph) setupSlack(p int, T float64) variation.Canonical {
	pr := &g.Pairs[p]
	slack := pr.Max.Neg().Add(g.setup[pr.Capture].Neg())
	return slack.AddConst(T + g.Skew[pr.Capture] - g.Skew[pr.Launch])
}

// PairReportAt builds the report entry for one pair.
func (g *Graph) PairReportAt(p int, T float64) PairReport {
	pr := &g.Pairs[p]
	slack := g.setupSlack(p, T)
	std := slack.Std()
	fail := 0.0
	switch {
	case std > 0:
		fail = stat.NormalCDF(-slack.Mean / std)
	case slack.Mean < 0:
		fail = 1
	}
	holdSlack := pr.Min.Mean - g.hold[pr.Capture].Mean + g.Skew[pr.Launch] - g.Skew[pr.Capture]
	return PairReport{
		Pair:       p,
		Launch:     pr.Launch,
		Capture:    pr.Capture,
		MeanSlack:  slack.Mean,
		StdSlack:   std,
		FailProb:   fail,
		HoldMargin: holdSlack,
	}
}

// SlackReport returns the statistical setup-slack report of every pair at
// period T, most-failing first (ties: smallest mean slack first).
func (g *Graph) SlackReport(T float64) []PairReport {
	out := make([]PairReport, len(g.Pairs))
	for p := range g.Pairs {
		out[p] = g.PairReportAt(p, T)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].FailProb != out[b].FailProb {
			return out[a].FailProb > out[b].FailProb
		}
		if out[a].MeanSlack != out[b].MeanSlack {
			return out[a].MeanSlack < out[b].MeanSlack
		}
		return out[a].Pair < out[b].Pair
	})
	return out
}

// CriticalPairs returns the topK most failure-prone pairs at T.
func (g *Graph) CriticalPairs(T float64, topK int) []PairReport {
	rep := g.SlackReport(T)
	if topK < len(rep) {
		rep = rep[:topK]
	}
	return rep
}
