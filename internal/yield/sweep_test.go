package yield

import (
	"encoding/json"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/timing"
)

// sweepFixture builds a bench, runs the insertion flow, and returns the
// evaluator, its groups, and a 10-point period sweep spanning the yield
// curve.
func sweepFixture(t *testing.T) (*Evaluator, *timing.Graph, []float64, []insertion.Group) {
	t.Helper()
	g, ps, pl := buildBench(t, 30, 160, 121)
	res, err := insertion.Run(g, pl, insertion.Config{T: ps.Mu, Samples: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(g, res.Cfg.Spec, res.Groups)
	if err != nil {
		t.Fatal(err)
	}
	Ts := make([]float64, 10)
	for i := range Ts {
		Ts[i] = ps.Mu + (float64(i)-3)*0.5*ps.Sigma
	}
	return ev, g, Ts, res.Groups
}

// sharedGroup returns the plan's grouping with the two endpoints of one
// launch≠capture pair merged into a single two-FF group: pairs between
// them are self pairs whose variable is buffered.
func sharedGroup(t *testing.T, g *timing.Graph, plan []insertion.Group, spec insertion.BufferSpec) []insertion.Group {
	t.Helper()
	for _, pr := range g.Pairs {
		l, c := pr.Launch, pr.Capture
		if l == c {
			continue
		}
		var out []insertion.Group
		for _, grp := range plan {
			if !slices.Contains(grp.FFs, l) && !slices.Contains(grp.FFs, c) {
				out = append(out, grp)
			}
		}
		half := float64(spec.Steps/2) * spec.Step()
		return append(out, insertion.Group{FFs: []int{l, c}, Lo: -half, Hi: float64(spec.Steps)*spec.Step() - half})
	}
	t.Fatal("no launch≠capture pair to share a group")
	return nil
}

// TestSweepMatchesPerPeriodEvaluate is the core equivalence claim: a sweep
// report is byte-identical to running today's per-period Evaluate at every
// sweep point on the same sample universe. The groupings cover every pair
// class: the baseline strategy set around the flow's plan ("sampling" is
// the plan itself; everyFF makes every launch≠capture pair an edge) and a
// shared two-FF group. The zero-only pass (RangePassZero) must land on the
// same FeasibleAtZero counts at every point.
func TestSweepMatchesPerPeriodEvaluate(t *testing.T) {
	ev, g, Ts, plan := sweepFixture(t)
	const n, seed = 1200, 909
	groupings := append(baseline.Strategies(g, ev.Spec, Ts[len(Ts)-1], plan, 5),
		baseline.Named{Name: "shared-group", Groups: sharedGroup(t, g, plan, ev.Spec)})
	for _, st := range groupings {
		t.Run(st.Name, func(t *testing.T) {
			cev, err := NewEvaluator(g, ev.Spec, st.Groups)
			if err != nil {
				t.Fatal(err)
			}
			switch st.Name {
			case "everyFF":
				if len(cev.uppers)+len(cev.lowers) != 0 || len(cev.edges) == 0 {
					t.Fatalf("everyFF: %d uppers, %d lowers, %d edges; want edges only",
						len(cev.uppers), len(cev.lowers), len(cev.edges))
				}
			case "shared-group":
				buffered := 0
				for _, r := range cev.selfs {
					if cev.varOf[r.launch] >= 0 {
						buffered++
					}
				}
				if buffered == 0 {
					t.Fatal("shared group put no buffered pair in the self class")
				}
			}
			sw, err := NewSweepEvaluator(cev, Ts)
			if err != nil {
				t.Fatal(err)
			}
			rep := EvaluateMany(mc.New(g, seed), n, sw)[0]
			zero := sw.ReportOf(SweepTally{
				FirstZero:  TallyRange(mc.New(g, seed), 0, n, true, sw)[0].FirstZero,
				FirstTuned: make([]int, len(Ts)+1),
			})
			// Two consumers of one pass, and a population's replay, decide
			// from chip certificates.
			for _, src := range []mc.Source{mc.New(g, seed), mc.New(g, seed).Materialize(n)} {
				for _, r := range EvaluateMany(src, n, sw, sw) {
					if !reflect.DeepEqual(r, rep) {
						t.Fatalf("certified pass %+v != uncertified %+v", r, rep)
					}
				}
				for _, tl := range TallyRange(src, 0, n, true, sw, sw) {
					if !slices.Equal(tl.FirstZero, TallyRange(mc.New(g, seed), 0, n, true, sw)[0].FirstZero) {
						t.Fatal("certified zero-only tally differs from the uncertified one")
					}
				}
			}
			for i, T := range Ts {
				want := Evaluate(cev, mc.New(g, seed), n, T)
				if got := rep.At(i); got != want {
					t.Fatalf("sweep point %d (T=%v): %+v != per-period %+v", i, T, got, want)
				}
				if got := zero.Original[i]; got != want.Original {
					t.Fatalf("zero-only point %d (T=%v): %+v != FeasibleAtZero count %+v", i, T, got, want.Original)
				}
			}
		})
	}
}

// oracleThresholds evaluates the chip at every sweep point with the
// reference predicates: FeasibleAtZero for the zero pass, and the full
// per-period system (ChipFeasible) for the tuned pass.
func oracleThresholds(ev *Evaluator, ch *timing.Chip, Ts []float64) (firstZero, firstTuned int) {
	firstZero, firstTuned = len(Ts), len(Ts)
	for i := len(Ts) - 1; i >= 0; i-- {
		zero := ev.G.FeasibleAtZero(ch, Ts[i])
		if zero {
			firstZero = i
		}
		if zero || ev.ChipFeasible(ch, Ts[i]) {
			firstTuned = i
		}
	}
	return firstZero, firstTuned
}

// cloneChip deep-copies a chip so a test can edit its realized values.
func cloneChip(ch *timing.Chip) *timing.Chip {
	return &timing.Chip{
		DMax:  slices.Clone(ch.DMax),
		DMin:  slices.Clone(ch.DMin),
		Setup: slices.Clone(ch.Setup),
		Hold:  slices.Clone(ch.Hold),
	}
}

// TestChipSweepForcedBranches edits realized chips so each early exit of
// the kernel fires, and checks ChipSweep and firstZeroIndex against the
// per-period oracles on every one: a self pair failing hold (never passes,
// tuned or not), a self pair failing setup at every period, and a rescue
// pair failing hold (never a zero pass, yet the buffers can still rescue).
// The base chips come certified from a materialized population; each
// edited clone is checked without a certificate and again certified, so
// both the scan and the certificate shortcuts meet the oracles.
func TestChipSweepForcedBranches(t *testing.T) {
	ev, g, Ts, plan := sweepFixture(t)
	cev, err := NewEvaluator(g, ev.Spec, sharedGroup(t, g, plan, ev.Spec))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSweepEvaluator(cev, Ts)
	if err != nil {
		t.Fatal(err)
	}
	sc := sw.NewScratch()
	nT := len(Ts)
	pop := mc.New(g, 915).Materialize(40)
	check := func(name string, ch *timing.Chip) (firstZero, firstTuned int) {
		t.Helper()
		wz, wt := oracleThresholds(cev, ch, Ts)
		certified := cloneChip(ch)
		g.Certify(certified)
		for _, c := range []*timing.Chip{ch, certified} {
			z, tn := sw.ChipSweep(c, sc)
			if z != wz || tn != wt {
				t.Fatalf("%s: ChipSweep = (%d, %d), per-period oracle (%d, %d)", name, z, tn, wz, wt)
			}
			if z := sw.firstZeroIndex(c); z != wz {
				t.Fatalf("%s: firstZeroIndex = %d, oracle %d", name, z, wz)
			}
		}
		return wz, wt
	}
	if len(cev.selfs) == 0 || len(cev.rescue) == 0 {
		t.Fatalf("fixture needs both classes: %d self, %d rescue pairs", len(cev.selfs), len(cev.rescue))
	}
	rescued := false
	for k := 0; k < 40; k++ {
		base := pop.Chip(k)
		check("unedited", base)

		ch := cloneChip(base)
		ch.DMin[cev.selfs[k%len(cev.selfs)].p] = -1e6
		if z, tn := check("self hold failure", ch); z != nT || tn != nT {
			t.Fatalf("self hold failure passed at (%d, %d)", z, tn)
		}

		ch = cloneChip(base)
		self := cev.selfs[k%len(cev.selfs)].p
		ch.DMax[self] = 1e9
		if z, tn := check("self setup failure", ch); z != nT || tn != nT {
			t.Fatalf("self setup failure passed at (%d, %d)", z, tn)
		}
		g.Certify(ch)
		if _, crit, ok := g.ZeroThreshold(ch, Ts); !ok || crit != int(self) {
			t.Fatalf("self setup failure: certificate threshold ok=%v crit=%d, want the self pair %d", ok, crit, self)
		}

		// Push one rescue pair half a grid step past its hold bound: no
		// zero pass, but shifting the capture buffer by a step can fix it.
		r := cev.rescue[k%len(cev.rescue)]
		ch = cloneChip(base)
		hB := g.HoldBound(ch, int(r.p))
		ch.DMin[r.p] -= hB + 0.5*cev.Spec.Step()
		if z, tn := check("rescue hold failure", ch); z != nT {
			t.Fatalf("rescue hold failure passed with zero tuning at %d", z)
		} else if tn < nT {
			rescued = true
		}
	}
	if !rescued {
		t.Fatal("no rescue-pair hold failure was rescued; the branch went unexercised")
	}
}

// TestSweepMonotoneInT: both yield curves are nondecreasing in the period.
func TestSweepMonotoneInT(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	rep, err := EvaluateSweep(ev, mc.New(g, 910), 800, Ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(Ts); i++ {
		if rep.Original[i].Pass < rep.Original[i-1].Pass {
			t.Fatalf("Yo not monotone at %d: %d < %d", i, rep.Original[i].Pass, rep.Original[i-1].Pass)
		}
		if rep.Tuned[i].Pass < rep.Tuned[i-1].Pass {
			t.Fatalf("Y not monotone at %d: %d < %d", i, rep.Tuned[i].Pass, rep.Tuned[i-1].Pass)
		}
		if rep.Tuned[i].Pass < rep.Original[i].Pass {
			t.Fatalf("tuned yield below original at %d", i)
		}
	}
}

// TestSweepDeterministicAcrossWorkers: Evaluate and the sweep produce
// byte-identical reports for Workers ∈ {1, 2, 8}.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	mkEng := func(workers int) *mc.Engine {
		e := mc.New(g, 911)
		e.Workers = workers
		return e
	}
	refSweep, err := EvaluateSweep(ev, mkEng(1), 600, Ts)
	if err != nil {
		t.Fatal(err)
	}
	refEval := Evaluate(ev, mkEng(1), 600, Ts[4])
	for _, workers := range []int{2, 8} {
		rep, err := EvaluateSweep(ev, mkEng(workers), 600, Ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range Ts {
			if rep.At(i) != refSweep.At(i) {
				t.Fatalf("workers=%d: sweep point %d differs", workers, i)
			}
		}
		if got := Evaluate(ev, mkEng(workers), 600, Ts[4]); got != refEval {
			t.Fatalf("workers=%d: Evaluate %+v != %+v", workers, got, refEval)
		}
	}
}

// TestEvaluateManyRealizesEachChipOnce pins the acceptance criterion: a
// multi-period, multi-strategy evaluation realizes each chip exactly once,
// and its reports match independent single-strategy passes.
func TestEvaluateManyRealizesEachChipOnce(t *testing.T) {
	ev, g, Ts, groups := sweepFixture(t)
	var evs []*Evaluator
	var sweeps []*SweepEvaluator
	for _, st := range baseline.Strategies(g, ev.Spec, Ts[len(Ts)-1], groups, 5) {
		sev, err := NewEvaluator(g, ev.Spec, st.Groups)
		if err != nil {
			t.Fatal(err)
		}
		ssw, err := NewSweepEvaluator(sev, Ts)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, sev)
		sweeps = append(sweeps, ssw)
	}
	const n, seed = 500, 912
	eng := mc.New(g, seed)
	var realized atomic.Int64
	eng.OnRealize = func(k int) { realized.Add(1) }
	reps := EvaluateMany(eng, n, sweeps...)
	if got := realized.Load(); got != n {
		t.Fatalf("batched pass realized %d chips; want exactly %d (%d strategies × %d periods share one stream)",
			got, n, len(sweeps), len(Ts))
	}
	for si, sev := range evs {
		solo, err := EvaluateSweep(sev, mc.New(g, seed), n, Ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range Ts {
			if reps[si].At(i) != solo.At(i) {
				t.Fatalf("strategy %d point %d: batched %+v != solo %+v", si, i, reps[si].At(i), solo.At(i))
			}
		}
	}
}

// TestChipSweepWarmZeroAllocs: the warm per-chip sweep must not allocate —
// it is the steady state of every batched evaluation pass.
func TestChipSweepWarmZeroAllocs(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	sw, err := NewSweepEvaluator(ev, Ts)
	if err != nil {
		t.Fatal(err)
	}
	sc := sw.NewScratch()
	eng := mc.New(g, 913)
	chips := []*timing.Chip{eng.Chip(0), eng.Chip(1), eng.Chip(2), eng.Chip(3)}
	for _, ch := range chips { // warm the scratch
		sw.ChipSweep(ch, sc)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		sw.ChipSweep(chips[i%len(chips)], sc)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm ChipSweep allocates %v times per run", allocs)
	}
}

func TestSweepValidation(t *testing.T) {
	ev, _, Ts, _ := sweepFixture(t)
	if _, err := NewSweepEvaluator(ev, nil); err == nil {
		t.Fatal("empty sweep must fail")
	}
	if _, err := NewSweepEvaluator(ev, []float64{Ts[1], Ts[0]}); err == nil {
		t.Fatal("unsorted sweep must fail")
	}
	if _, err := NewSweepEvaluator(ev, []float64{Ts[0]}); err != nil {
		t.Fatalf("single-point sweep: %v", err)
	}
}

// TestSweepNoBuffers: with no groups the tuned curve equals the original.
func TestSweepNoBuffers(t *testing.T) {
	g, ps, _ := buildBench(t, 15, 70, 123)
	ev, err := NewEvaluator(g, insertion.DefaultSpec(ps.Mu), nil)
	if err != nil {
		t.Fatal(err)
	}
	Ts := []float64{ps.Mu - ps.Sigma, ps.Mu, ps.Mu + ps.Sigma}
	rep, err := EvaluateSweep(ev, mc.New(g, 914), 400, Ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range Ts {
		if rep.Tuned[i] != rep.Original[i] {
			t.Fatalf("no buffers: Y must equal Yo at point %d", i)
		}
	}
}

// TestTallyRangeMergesToFullPass: partial tallies over uneven disjoint
// ranges tiling [0, n) — merged in arbitrary order, with a JSON round trip
// standing in for the shard wire protocol — must reproduce the full-pass
// report exactly.
func TestTallyRangeMergesToFullPass(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	const n, seed = 900, 707
	sw, err := NewSweepEvaluator(ev, Ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateSweep(ev, mc.New(g, seed), n, Ts)
	if err != nil {
		t.Fatal(err)
	}
	// Uneven tiling, merged back-to-front to prove order independence.
	ranges := [][2]int{{0, 1}, {1, 130}, {130, 640}, {640, 900}}
	merged := sw.NewTally()
	for i := len(ranges) - 1; i >= 0; i-- {
		part := TallyRange(mc.New(g, seed), ranges[i][0], ranges[i][1], false, sw)[0]
		data, err := json.Marshal(part)
		if err != nil {
			t.Fatal(err)
		}
		var wire SweepTally
		if err := json.Unmarshal(data, &wire); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(wire); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Chips() != n {
		t.Fatalf("merged tally covers %d chips, want %d", merged.Chips(), n)
	}
	got := sw.ReportOf(merged)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged sharded report diverges:\n got %+v\nwant %+v", got, want)
	}
	// Length-mismatched tallies must refuse to merge.
	if err := merged.Merge(SweepTally{FirstZero: []int{1}, FirstTuned: []int{1}}); err == nil {
		t.Fatal("merging mismatched tally lengths succeeded, want error")
	}
}
