package insertion_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/yield"
)

// The plan equivalence harness: the tier-B gate for a change that moves
// plan bits. The fast repair (support enumeration and projection) and the
// two-ILP route reach the same per-component objective but break ties
// differently, so their plans differ in bits; this harness bounds how much
// the plans differ where it matters — buffer count Nb, average range Ab and
// yield improvement Yi — over a panel of circuits, seeds and targets.

// equivRow is the part of a Table-I row the harness compares.
type equivRow struct {
	Nb     int
	Ab, Yi float64
}

// Equivalence bounds, per circuit (18 rows: 6 seeds × 3 targets). They are
// equivalence bounds, not "the CI contains 0": an exact-zero test rejects a
// shift far below the per-row Monte Carlo error at 750 chips (a plan-level
// change moves every row a little), while a noisier panel would pass larger
// shifts.
const (
	equivMaxRowNb  = 1    // |ΔNb| on every row
	equivMeanNb    = 0.25 // |mean ΔNb|
	equivMeanAb    = 0.5  // |mean ΔAb|, steps
	equivYiHalfBox = 0.5  // the 95 % paired t-interval of ΔYi lies in ±this, pts
)

// t975 holds the 0.975 quantiles of Student's t for 1…30 degrees of
// freedom.
var t975 = [...]float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042}

// equivSummary is the harness verdict on one circuit's rows.
type equivSummary struct {
	meanNb, meanAb    float64
	yiLo, yiHi, maxNb float64
}

// summarize pairs got with ref row by row.
func summarize(ref, got []equivRow) equivSummary {
	n := float64(len(ref))
	var s equivSummary
	var dYi []float64
	for i := range ref {
		dNb := float64(got[i].Nb - ref[i].Nb)
		s.maxNb = math.Max(s.maxNb, math.Abs(dNb))
		s.meanNb += dNb / n
		s.meanAb += (got[i].Ab - ref[i].Ab) / n
		dYi = append(dYi, got[i].Yi-ref[i].Yi)
	}
	mean, ss := 0.0, 0.0
	for _, d := range dYi {
		mean += d / n
	}
	for _, d := range dYi {
		ss += (d - mean) * (d - mean)
	}
	half := t975[len(dYi)-2] * math.Sqrt(ss/(n-1)/n)
	s.yiLo, s.yiHi = mean-half, mean+half
	return s
}

// equivVerdict accepts got as equivalent to ref, or says why not.
func equivVerdict(ref, got []equivRow) error {
	if len(ref) != len(got) || len(ref) < 2 || len(ref) > len(t975)+1 {
		return fmt.Errorf("panel of %d rows against %d", len(got), len(ref))
	}
	s := summarize(ref, got)
	switch {
	case s.maxNb > equivMaxRowNb:
		return fmt.Errorf("a row moves Nb by %v (bound %v)", s.maxNb, equivMaxRowNb)
	case math.Abs(s.meanNb) > equivMeanNb:
		return fmt.Errorf("mean ΔNb %+.3f (bound ±%v)", s.meanNb, equivMeanNb)
	case math.Abs(s.meanAb) > equivMeanAb:
		return fmt.Errorf("mean ΔAb %+.3f steps (bound ±%v)", s.meanAb, equivMeanAb)
	case s.yiLo < -equivYiHalfBox || s.yiHi > equivYiHalfBox:
		return fmt.Errorf("ΔYi 95%% interval [%+.3f, %+.3f] pts leaves ±%v", s.yiLo, s.yiHi, equivYiHalfBox)
	}
	return nil
}

// panelRows runs the flow for every seed and target of the panel on one
// circuit, through the fast route and the forced-MILP route, and measures
// each plan on the 750-chip universe RunRows uses (seed+0x1000).
func panelRows(t *testing.T, name string) (fast, ref []equivRow) {
	b, err := expt.PreparePreset(name, expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := insertion.NewRunner(b.Graph, b.Placement)
	for seed := uint64(101); seed <= 606; seed += 101 {
		var sweeps []*yield.SweepEvaluator
		var rows []equivRow
		for _, target := range expt.Targets {
			cfg := insertion.Config{T: b.PeriodFor(target), Samples: 150, Seed: seed}
			for _, c := range []insertion.Config{cfg, insertion.ForceMILP(cfg)} {
				res, err := runner.Run(c)
				if err != nil {
					t.Fatal(err)
				}
				ev, err := yield.NewEvaluator(b.Graph, res.Cfg.Spec, res.Groups)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := yield.NewSweepEvaluator(ev, []float64{c.T})
				if err != nil {
					t.Fatal(err)
				}
				sweeps = append(sweeps, sw)
				rows = append(rows, equivRow{Nb: res.NumPhysicalBuffers(), Ab: res.AvgRangeSteps()})
			}
		}
		for i, rep := range yield.EvaluateMany(mc.New(b.Graph, seed+0x1000), 750, sweeps...) {
			rows[i].Yi = rep.At(0).Improvement()
		}
		for i := 0; i < len(rows); i += 2 {
			fast, ref = append(fast, rows[i]), append(ref, rows[i+1])
		}
	}
	return fast, ref
}

// TestPlanEquivalence is the gate: on s9234 and s13207 × seeds 101…606 ×
// the three Table-I targets at 150 insertion samples, the fast route's
// plans are equivalent to the two-ILP route's (equivVerdict). Its
// self-tests check that the verdict rejects three planted faults and
// accepts the reference against itself.
func TestPlanEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 72 flows on two presets")
	}
	for _, name := range []string{"s9234", "s13207"} {
		fast, ref := panelRows(t, name)
		s := summarize(ref, fast)
		t.Logf("%s: max |ΔNb| %v, mean ΔNb %+.3f, mean ΔAb %+.3f, ΔYi 95%% interval [%+.3f, %+.3f]",
			name, s.maxNb, s.meanNb, s.meanAb, s.yiLo, s.yiHi)
		if err := equivVerdict(ref, fast); err != nil {
			t.Errorf("%s: fast route not equivalent to the MILP route: %v", name, err)
		}
		plants := map[string]func(rows []equivRow){
			"Yi +1 pt on every row": func(rows []equivRow) {
				for i := range rows {
					rows[i].Yi++
				}
			},
			"Nb +1 on every row": func(rows []equivRow) {
				for i := range rows {
					rows[i].Nb++
				}
			},
			"Nb +2 on one row": func(rows []equivRow) { rows[len(rows)/2].Nb += 2 },
		}
		for plant, apply := range plants {
			got := append([]equivRow(nil), ref...)
			apply(got)
			if equivVerdict(ref, got) == nil {
				t.Errorf("%s: the verdict accepts the planted fault %q", name, plant)
			}
		}
		if err := equivVerdict(ref, ref); err != nil {
			t.Errorf("%s: the verdict rejects the reference against itself: %v", name, err)
		}
	}
}
