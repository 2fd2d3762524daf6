package yield

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mc"
)

// TestAdaptiveEarlyStopAtEasyPoint is the acceptance criterion of the
// adaptive loop: at an easy period (µ+3σ, yield ≈ 1) with eps=0.005 and
// conf=0.95, the rule must stop within 1/10 of the nominal fixed-n budget,
// and every reported interval must contain the corresponding fixed-n
// estimate.
func TestAdaptiveEarlyStopAtEasyPoint(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	easy := []float64{Ts[len(Ts)-1] + 1} // beyond µ+3σ: the easy point
	const n, seed = 40000, 515
	prec := Precision{Eps: 0.005, Conf: 0.95}
	sw, err := NewSweepEvaluator(ev, easy)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := EvaluateManyAdaptive(mc.New(g, seed), n, prec, sw)
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if !rep.Met {
		t.Fatalf("stopping rule exhausted the cap: %+v", rep)
	}
	if rep.SamplesUsed > n/10 {
		t.Fatalf("adaptive used %d samples, want ≤ %d (1/10 of nominal %d)", rep.SamplesUsed, n/10, n)
	}
	if rep.Waves < 2 {
		t.Fatalf("expected multiple waves, got %d", rep.Waves)
	}
	// The returned intervals must contain the fixed-n estimates (computed
	// on the plain universe at the same seed — adaptive stratifies, so the
	// universes differ; both target the same true yield).
	fixed, err := EvaluateSweep(ev, mc.New(g, seed), n, easy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range easy {
		o, tn := rep.Original[i], rep.Tuned[i]
		if o.HalfWidth > prec.Eps || tn.HalfWidth > prec.Eps {
			t.Fatalf("point %d: met report wider than eps: orig %v tuned %v", i, o.HalfWidth, tn.HalfWidth)
		}
		if d := math.Abs(o.Estimate - fixed.Original[i].Rate()); d > o.HalfWidth {
			t.Errorf("point %d: fixed-n original %v outside adaptive %v ± %v", i, fixed.Original[i].Rate(), o.Estimate, o.HalfWidth)
		}
		if d := math.Abs(tn.Estimate - fixed.Tuned[i].Rate()); d > tn.HalfWidth {
			t.Errorf("point %d: fixed-n tuned %v outside adaptive %v ± %v", i, fixed.Tuned[i].Rate(), tn.Estimate, tn.HalfWidth)
		}
	}
}

// TestAdaptiveDeterministicAcrossWorkers: the adaptive loop's entire
// output — schedule, samples used, every estimate — must be identical for
// any worker count, like every other evaluation path.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	prec := Precision{Eps: 0.02, Conf: 0.9}
	sw, err := NewSweepEvaluator(ev, Ts[5:8])
	if err != nil {
		t.Fatal(err)
	}
	mkEng := func(workers int) *mc.Engine {
		e := mc.New(g, 616)
		e.Workers = workers
		return e
	}
	ref, err := EvaluateManyAdaptive(mkEng(1), 20000, prec, sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := EvaluateManyAdaptive(mkEng(workers), 20000, prec, sw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: adaptive reports diverge:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// TestAdaptiveLeavesEngineUnstratified: the adaptive waves stream a
// stratified universe, but on copies of the caller's engine. After an
// adaptive call the engine's Stratify is still 0, and a fixed-n pass on it
// streams the plain universe, as one on a fresh engine does.
func TestAdaptiveLeavesEngineUnstratified(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	const n, seed = 4000, 717
	sw, err := NewSweepEvaluator(ev, Ts[5:8])
	if err != nil {
		t.Fatal(err)
	}
	eng := mc.New(g, seed)
	if _, err := EvaluateManyAdaptive(eng, n, Precision{Eps: 0.02, Conf: 0.9}, sw); err != nil {
		t.Fatal(err)
	}
	if eng.Stratify != 0 {
		t.Fatalf("adaptive call left Stratify = %d on the caller's engine", eng.Stratify)
	}
	got := EvaluateMany(eng, n, sw)
	want := EvaluateMany(mc.New(g, seed), n, sw)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixed-n after an adaptive call:\n got %+v\nwant %+v", got, want)
	}
}

// TestAdaptiveShardedWavesMatchInProcess pins the coordinator contract at
// the yield layer: driving the same Adaptive machine with every wave split
// into uneven sub-ranges — tallied by independent engines and merged, as
// the sharded dispatch does across workers — must reproduce the in-process
// reports exactly, including the wave schedule itself.
func TestAdaptiveShardedWavesMatchInProcess(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	prec := Precision{Eps: 0.02, Conf: 0.9}
	const n, seed = 20000, 616
	mkSweeps := func() []*SweepEvaluator {
		s1, err := NewSweepEvaluator(ev, Ts[5:8])
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewSweepEvaluator(ev, Ts[2:4])
		if err != nil {
			t.Fatal(err)
		}
		return []*SweepEvaluator{s1, s2}
	}
	inproc := mkSweeps()
	want, err := EvaluateManyAdaptive(mc.New(g, seed), n, prec, inproc...)
	if err != nil {
		t.Fatal(err)
	}

	sweeps := mkSweeps()
	a, err := NewAdaptive(prec, n, sweeps...)
	if err != nil {
		t.Fatal(err)
	}
	for {
		lo, hi, zeroOnly, ok := a.Next()
		if !ok {
			break
		}
		// Merged accumulators, one per sweep, shaped for the wave kind.
		merged := make([]SweepTally, len(sweeps))
		for i, sw := range sweeps {
			if zeroOnly {
				merged[i] = SweepTally{FirstZero: make([]int, len(sw.Ts)+1)}
			} else {
				merged[i] = sw.NewTally()
			}
		}
		// Uneven split of the wave range; each part uses a fresh engine,
		// as a remote worker would.
		cuts := []int{lo, lo + (hi-lo)/3, lo + (hi-lo)/2, hi}
		for c := 0; c+1 < len(cuts); c++ {
			eng := mc.New(g, seed)
			eng.Stratify = a.Prec.Strata
			part := TallyRange(eng, cuts[c], cuts[c+1], zeroOnly, sweeps...)
			for i := range merged {
				if err := merged[i].Merge(part[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := a.Absorb(merged); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Reports(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded adaptive reports diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestAdaptiveZeroOnlyWavesControlVariate pins the step-1 control variate
// on the wave machine itself: at a mid-yield period the rule must spend
// some waves zero-only (no rescue solver), meet the precision with fewer
// joint chips than chips realized, and report a tuned interval that covers
// the fixed-n estimate.
func TestAdaptiveZeroOnlyWavesControlVariate(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	const n, seed = 20000, 616
	sw, err := NewSweepEvaluator(ev, Ts[5:6])
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptive(Precision{Eps: 0.02, Conf: 0.95}, n, sw)
	if err != nil {
		t.Fatal(err)
	}
	eng := mc.New(g, seed)
	eng.Stratify = a.Prec.Strata
	zeroWaves, jointChips := 0, 0
	for {
		lo, hi, zeroOnly, ok := a.Next()
		if !ok {
			break
		}
		if zeroOnly {
			zeroWaves++
		} else {
			jointChips += hi - lo
		}
		if err := a.Absorb(TallyRange(eng, lo, hi, zeroOnly, sw)); err != nil {
			t.Fatal(err)
		}
	}
	rep := a.Reports()[0]
	t.Logf("%d waves (%d zero-only), %d joint of %d chips", rep.Waves, zeroWaves, jointChips, rep.SamplesUsed)
	if zeroWaves == 0 {
		t.Fatal("no zero-only wave: the step-1 tallies never served as a control")
	}
	if !rep.Met {
		t.Fatalf("stopping rule exhausted the cap: %+v", rep)
	}
	if jointChips >= rep.SamplesUsed || jointChips != rep.JointSamples {
		t.Fatalf("joint chips %d (report %d) of %d realized", jointChips, rep.JointSamples, rep.SamplesUsed)
	}
	fixed, err := EvaluateSweep(ev, mc.New(g, seed), n, Ts[5:6])
	if err != nil {
		t.Fatal(err)
	}
	tn := rep.Tuned[0]
	if d := math.Abs(tn.Estimate - fixed.Tuned[0].Rate()); d > tn.HalfWidth {
		t.Errorf("fixed-n tuned %v outside adaptive %v ± %v", fixed.Tuned[0].Rate(), tn.Estimate, tn.HalfWidth)
	}
}

// TestAdaptiveValidation pins parameter and wave-shape errors.
func TestAdaptiveValidation(t *testing.T) {
	ev, _, Ts, _ := sweepFixture(t)
	sw, err := NewSweepEvaluator(ev, Ts[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []Precision{
		{Eps: 0},
		{Eps: 0.6},
		{Eps: 0.01, Conf: 0.3},
		{Eps: 0.01, Conf: 1},
	} {
		if _, err := NewAdaptive(prec, 1000, sw); err == nil {
			t.Errorf("Precision %+v accepted, want error", prec)
		}
	}
	if _, err := NewAdaptive(Precision{Eps: 0.01}, 0, sw); err == nil {
		t.Error("zero sample cap accepted")
	}
	if _, err := NewAdaptive(Precision{Eps: 0.01}, 1000); err == nil {
		t.Error("no sweeps accepted")
	}

	a, err := NewAdaptive(Precision{Eps: 0.01}, 1000, sw)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Absorb(nil); err == nil {
		t.Error("Absorb without pending wave accepted")
	}
	lo, hi, zeroOnly, ok := a.Next()
	if !ok || zeroOnly {
		t.Fatalf("first wave must be joint: lo=%d hi=%d zeroOnly=%v ok=%v", lo, hi, zeroOnly, ok)
	}
	if err := a.Absorb([]SweepTally{{FirstZero: []int{1}, FirstTuned: []int{1}}}); err == nil {
		t.Error("mis-shaped wave tally accepted")
	}
	if err := a.Absorb([]SweepTally{sw.NewTally()}); err == nil {
		t.Error("wave tally with wrong chip count accepted")
	}
}

// TestAdaptiveStrataFallback: a cap smaller than one stratification cycle
// silently disables stratification instead of failing.
func TestAdaptiveStrataFallback(t *testing.T) {
	ev, _, Ts, _ := sweepFixture(t)
	sw, err := NewSweepEvaluator(ev, Ts[:1])
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptive(Precision{Eps: 0.4, Strata: 64}, 20, sw)
	if err != nil {
		t.Fatal(err)
	}
	if a.Prec.Strata != 0 {
		t.Fatalf("Strata not cleared on tiny cap: %d", a.Prec.Strata)
	}
}
