package yield_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/yield"
)

// The yield-level tier-B harness: the gate for a change that moves
// adaptive yield answers. Byte identity cannot hold across such a change,
// so the harness asks what the answers promise instead. An adaptive report
// claims that Original and Tuned each lie within ±HalfWidth of the true
// yield, jointly, with probability at least Conf. Over many fresh
// universes the share of reports where either interval misses a high-n
// reference must therefore stay at most α = 1 − Conf, and the estimates
// must not drift from the reference on average.

// Harness size and the adaptive request it checks: the serve_yield
// benchmark's adaptive query (±0.02 at 95 %, cap 16000) on its set-up
// plans for s9234.
const (
	coverUniverses = 200
	coverRefChips  = 400_000
	coverCap       = 16000
	coverEps       = 0.02
	coverConf      = 0.95
	// coverDelta is the false-alarm rate of each verdict test: the
	// binomial bound on misses and the z-interval of the mean drift.
	coverDelta = 0.001
	coverZ     = 3.29 // two-sided normal quantile at coverDelta
	// coverDriftBox bounds the mean drift: its z-interval must lie inside
	// ±coverDriftBox (a quarter of eps). It is an equivalence bound, not
	// "the interval contains 0": optional stopping biases a sequential
	// estimate by a fraction of its standard error (at yield ≈ 1 the rule
	// stops sooner when p̂ runs high), which 400 universes resolve, while a
	// drift well inside eps harms no answer.
	coverDriftBox = coverEps / 4
)

// coverRun is the part of one universe's adaptive report the verdict
// reads.
type coverRun struct {
	orig, tuned yield.PointEstimate
}

// coverRef is the fixed-n reference yield of one plan.
type coverRef struct {
	orig, tuned float64
	n           int
}

// missBound returns the largest miss count a correct rule may show over n
// universes: the smallest c with P(Bin(n, alpha) > c) ≤ delta.
func missBound(n int, alpha, delta float64) int {
	pmf := math.Pow(1-alpha, float64(n)) // P(X = 0)
	cdf := pmf
	c := 0
	for 1-cdf > delta && c < n {
		pmf *= float64(n-c) / float64(c+1) * alpha / (1 - alpha)
		c++
		cdf += pmf
	}
	return c
}

// coverSummary is what the verdict reads off the runs: the universes
// where either interval misses the reference (the family is the pair),
// and per estimate (original, tuned) its mean deviation from the reference
// and that mean's standard error, counting the reference's own Monte
// Carlo error.
type coverSummary struct {
	misses    int
	drift, se [2]float64
}

func summarizeCover(runs []coverRun, ref coverRef) coverSummary {
	var s coverSummary
	for _, r := range runs {
		if math.Abs(r.orig.Estimate-ref.orig) > r.orig.HalfWidth ||
			math.Abs(r.tuned.Estimate-ref.tuned) > r.tuned.HalfWidth {
			s.misses++
		}
	}
	n := float64(len(runs))
	for i, p := range []float64{ref.orig, ref.tuned} {
		est := func(r coverRun) float64 { return [2]float64{r.orig.Estimate, r.tuned.Estimate}[i] }
		ss := 0.0
		for _, r := range runs {
			s.drift[i] += (est(r) - p) / n
		}
		for _, r := range runs {
			d := est(r) - p - s.drift[i]
			ss += d * d
		}
		s.se[i] = math.Sqrt(ss/(n-1)/n + p*(1-p)/float64(ref.n))
	}
	return s
}

// coverVerdict accepts the runs as honest answers about ref, or says why
// not: misses within the binomial bound at α = 1 − coverConf, and each
// estimate's mean drift, widened by coverZ standard errors, inside
// ±coverDriftBox.
func coverVerdict(runs []coverRun, ref coverRef) error {
	s := summarizeCover(runs, ref)
	if bound := missBound(len(runs), 1-coverConf, coverDelta); s.misses > bound {
		return fmt.Errorf("%d of %d universes miss the reference, bound %d", s.misses, len(runs), bound)
	}
	for i, name := range []string{"original", "tuned"} {
		if math.Abs(s.drift[i])+coverZ*s.se[i] > coverDriftBox {
			return fmt.Errorf("%s estimates drift %+.4f ± %.4f from the reference, outside ±%v",
				name, s.drift[i], coverZ*s.se[i], coverDriftBox)
		}
	}
	return nil
}

// TestAdaptiveCoverage is the gate: on s9234's serve_yield plans at µT
// and µT+σ (300 insertion samples, seed 11), the adaptive rule on
// coverUniverses fresh stratified universes per plan passes coverVerdict
// against a coverRefChips fixed-n reference. Its self-test checks that the
// verdict rejects every estimate shifted by +0.01.
func TestAdaptiveCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 400 adaptive evaluations and two 400k-chip references on s9234")
	}
	b, err := expt.PreparePreset("s9234", expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := insertion.NewRunner(b.Graph, b.Placement)
	for pi, target := range []expt.Target{expt.MuT, expt.MuTPlusSigma} {
		T := b.PeriodFor(target)
		res, err := runner.Run(insertion.Config{T: T, Samples: 300, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := yield.NewEvaluator(b.Graph, res.Cfg.Spec, res.Groups)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := yield.NewSweepEvaluator(ev, []float64{T})
		if err != nil {
			t.Fatal(err)
		}
		fixed := yield.EvaluateMany(mc.New(b.Graph, 0xC0DE+uint64(pi)), coverRefChips, sw)[0]
		ref := coverRef{orig: fixed.Original[0].Rate(), tuned: fixed.Tuned[0].Rate(), n: coverRefChips}
		runs := make([]coverRun, coverUniverses)
		chips := 0
		for u := range runs {
			reps, err := yield.EvaluateManyAdaptive(mc.New(b.Graph, 0x7E57_0000+uint64(pi)<<16+uint64(u)),
				coverCap, yield.Precision{Eps: coverEps, Conf: coverConf}, sw)
			if err != nil {
				t.Fatal(err)
			}
			rep := reps[0]
			if !rep.Met {
				t.Fatalf("target %d universe %d: the rule exhausted the cap", target, u)
			}
			runs[u] = coverRun{orig: rep.Original[0], tuned: rep.Tuned[0]}
			chips += rep.SamplesUsed
		}
		sum := summarizeCover(runs, ref)
		t.Logf("s9234 target %d: reference Yo %.4f Y %.4f; %d universes, mean %d chips; %d miss (bound %d); drift Yo %+.4f ± %.4f, Y %+.4f ± %.4f",
			target, ref.orig, ref.tuned, coverUniverses, chips/coverUniverses, sum.misses,
			missBound(coverUniverses, 1-coverConf, coverDelta), sum.drift[0], coverZ*sum.se[0], sum.drift[1], coverZ*sum.se[1])
		if err := coverVerdict(runs, ref); err != nil {
			t.Errorf("s9234 target %d: %v", target, err)
		}
		shifted := append([]coverRun(nil), runs...)
		for i := range shifted {
			shifted[i].orig.Estimate += 0.01
			shifted[i].tuned.Estimate += 0.01
		}
		err = coverVerdict(shifted, ref)
		t.Logf("s9234 target %d, every estimate +0.01: %d miss; verdict: %v", target, summarizeCover(shifted, ref).misses, err)
		if err == nil {
			t.Errorf("s9234 target %d: the verdict accepts every estimate shifted by +0.01", target)
		}
	}
}
