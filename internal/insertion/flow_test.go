package insertion

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/mc"
	"repro/internal/placement"
	"repro/internal/ssta"
	"repro/internal/timing"
	"repro/internal/variation"
)

// buildBench constructs a small benchmark: generated circuit, hold-safe
// skews, timing graph, and the µT target period.
func buildBench(t *testing.T, ffs, gates int, seed uint64) (*timing.Graph, float64, *placement.Placement) {
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
	eng := mc.New(g, 555)
	ps := eng.PeriodDistribution(1500)
	pl := placement.Grid(g.NS, placement.AdjFromPairs(g.NS, g.FFPairIDs()))
	return g, ps.Mu, pl
}

// TestChipCacheByteIdentical: materializing the sample stream once and
// replaying it through the step-1/step-2 passes must not change a single
// output of the flow.
func TestChipCacheByteIdentical(t *testing.T) {
	g, T, pl := buildBench(t, 25, 120, 31)
	run := func(cacheMB int) *Result {
		res, err := Run(g, pl, Config{T: T, Samples: 200, Seed: 9, ChipCacheMB: cacheMB})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached, uncached := run(256), run(-1)
	if !reflect.DeepEqual(cached.Buffers, uncached.Buffers) {
		t.Fatalf("buffers differ:\ncached:   %+v\nuncached: %+v", cached.Buffers, uncached.Buffers)
	}
	if !reflect.DeepEqual(cached.Groups, uncached.Groups) {
		t.Fatalf("groups differ:\ncached:   %+v\nuncached: %+v", cached.Groups, uncached.Groups)
	}
	if !reflect.DeepEqual(cached.Stats, uncached.Stats) {
		t.Fatalf("stats differ:\ncached:   %+v\nuncached: %+v", cached.Stats, uncached.Stats)
	}
}

// TestRunSharesRealizationAcrossPasses: with the chip cache active the
// whole flow realizes each sample exactly once; disabled, every pass pays
// its own realization of the same stream.
func TestRunSharesRealizationAcrossPasses(t *testing.T) {
	g, T, pl := buildBench(t, 25, 120, 31)
	count := func(cacheMB int) int64 {
		var realized atomic.Int64
		cfg := Config{T: T, Samples: 200, Seed: 9, ChipCacheMB: cacheMB,
			onRealize: func(k int) { realized.Add(1) }}
		if _, err := Run(g, pl, cfg); err != nil {
			t.Fatal(err)
		}
		return realized.Load()
	}
	if got := count(256); got != 200 {
		t.Fatalf("cached flow realized %d chips, want exactly 200", got)
	}
	if got := count(-1); got < 2*200 {
		t.Fatalf("uncached flow realized %d chips; expected at least two full passes", got)
	}
}

// TestRunOnSharesPopulation: flows at several periods over one realized
// population realize each chip once in all, and each result is
// byte-identical to its own Run; a population of another seed, sample
// count or runner is refused.
func TestRunOnSharesPopulation(t *testing.T) {
	g, T, pl := buildBench(t, 25, 120, 31)
	var realized atomic.Int64
	cfg := Config{Samples: 200, Seed: 9, onRealize: func(k int) { realized.Add(1) }}
	r := NewRunner(g, pl)
	first := cfg
	first.T = T
	pop, err := r.Realize(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, period := range []float64{T, 1.05 * T, 1.1 * T} {
		c := cfg
		c.T = period
		shared, err := r.RunOn(pop, c)
		if err != nil {
			t.Fatal(err)
		}
		c.onRealize = nil
		solo, err := r.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		shared.Cfg.onRealize = nil
		if !reflect.DeepEqual(shared, solo) {
			t.Fatalf("T=%v: the shared-population flow differs from Run", period)
		}
	}
	if got := realized.Load(); got != 200 {
		t.Fatalf("three flows on one population realized %d chips, want 200", got)
	}
	for _, bad := range []Config{{T: T, Samples: 200, Seed: 10}, {T: T, Samples: 100, Seed: 9}} {
		if _, err := r.RunOn(pop, bad); err == nil {
			t.Errorf("seed %d × %d samples ran on the seed 9 × 200 population", bad.Seed, bad.Samples)
		}
	}
	if _, err := NewRunner(g, pl).RunOn(pop, first); err == nil {
		t.Error("a population ran on another runner")
	}
}

// TestChipCacheBudget: a budget smaller than the population falls back to
// per-pass realization (still correct, just uncached).
func TestChipCacheBudget(t *testing.T) {
	g, T, pl := buildBench(t, 25, 120, 31)
	const samples = 900
	if mc.New(g, 9).PopulationBytes(samples) <= 1<<20 {
		t.Fatal("fixture too small: population must exceed the 1 MiB budget")
	}
	var realized atomic.Int64
	cfg := Config{T: T, Samples: samples, Seed: 9, ChipCacheMB: 1,
		onRealize: func(k int) { realized.Add(1) }}
	if _, err := Run(g, pl, cfg); err != nil {
		t.Fatal(err)
	}
	if realized.Load() < 2*samples {
		t.Fatalf("over-budget cache should fall back to per-pass realization; realized %d", realized.Load())
	}
}

func TestSpecAndConfig(t *testing.T) {
	spec := DefaultSpec(800)
	if spec.MaxRange != 100 || spec.Steps != 20 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Step() != 5 {
		t.Fatalf("step = %v", spec.Step())
	}
	if err := (BufferSpec{MaxRange: -1, Steps: 20}).Validate(); err == nil {
		t.Fatal("negative range must fail")
	}
	if err := (BufferSpec{MaxRange: 1, Steps: 0}).Validate(); err == nil {
		t.Fatal("zero steps must fail")
	}
	cfg := Config{T: 800, Samples: 10000}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.PruneMax != 1 || cfg.CriticalMin != 5 {
		t.Fatalf("paper thresholds at 10k samples: %d/%d", cfg.PruneMax, cfg.CriticalMin)
	}
	if cfg.CorrThreshold != 0.8 || cfg.DistThreshold != 10 || cfg.SkipRerunFrac != 0.001 {
		t.Fatalf("paper defaults: %+v", cfg)
	}
	cfgSmall := Config{T: 800, Samples: 500}
	if err := cfgSmall.fill(); err != nil {
		t.Fatal(err)
	}
	if cfgSmall.PruneMax < 0 || cfgSmall.CriticalMin < 2 {
		t.Fatalf("scaled thresholds: %+v", cfgSmall)
	}
	bad := Config{T: -1, Samples: 10}
	if err := bad.fill(); err == nil {
		t.Fatal("negative T must fail")
	}
	bad2 := Config{T: 10, Samples: 0}
	if err := bad2.fill(); err == nil {
		t.Fatal("zero samples must fail")
	}
}

func TestFlowEndToEnd(t *testing.T) {
	g, muT, pl := buildBench(t, 30, 150, 21)
	cfg := Config{T: muT, Samples: 300, Seed: 777}
	res, err := Run(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buffers) == 0 {
		t.Fatal("flow found no buffers at µT (half the chips fail there)")
	}
	if len(res.Groups) == 0 || len(res.Groups) > len(res.Buffers) {
		t.Fatalf("groups = %d, buffers = %d", len(res.Groups), len(res.Buffers))
	}
	// Paper: buffer count ≪ FF count.
	if len(res.Buffers) > g.NS/2 {
		t.Fatalf("too many buffers: %d of %d FFs", len(res.Buffers), g.NS)
	}
	s := res.Cfg.Spec.Step()
	for _, b := range res.Buffers {
		// Windows grid-aligned, covering 0, within ±τ.
		if b.Lower > 1e-9 || b.Lower < -res.Cfg.Spec.MaxRange-1e-9 {
			t.Fatalf("lower bound %v outside [−τ, 0]", b.Lower)
		}
		if m := b.Lower / s; math.Abs(m-math.Round(m)) > 1e-6 {
			t.Fatalf("lower bound %v not grid aligned", b.Lower)
		}
		if b.Lo > 0 || b.Hi < 0 {
			t.Fatalf("final range [%v,%v] must cover 0", b.Lo, b.Hi)
		}
		if b.RangeSteps < 0 || b.RangeSteps > res.Cfg.Spec.Steps {
			t.Fatalf("range steps %d outside [0,%d]", b.RangeSteps, res.Cfg.Spec.Steps)
		}
		if b.Uses <= 0 {
			t.Fatal("kept buffer with zero uses")
		}
	}
	// Every FF appears in at most one group.
	seen := map[int]bool{}
	for _, grp := range res.Groups {
		for _, ff := range grp.FFs {
			if seen[ff] {
				t.Fatalf("FF %d in two groups", ff)
			}
			seen[ff] = true
		}
	}
	// Stats populated.
	if res.Stats.Samples != 300 || res.Stats.TuneCountStep1 == nil {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.String() == "" {
		t.Fatal("String")
	}
}

func TestFlowDeterministic(t *testing.T) {
	g, muT, pl := buildBench(t, 20, 100, 31)
	cfg := Config{T: muT, Samples: 150, Seed: 9}
	r1, err := Run(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, pl, Config{T: muT, Samples: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Buffers) != len(r2.Buffers) || len(r1.Groups) != len(r2.Groups) {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d buffers/groups",
			len(r1.Buffers), len(r1.Groups), len(r2.Buffers), len(r2.Groups))
	}
	for i := range r1.Buffers {
		if r1.Buffers[i] != r2.Buffers[i] {
			t.Fatalf("buffer %d differs: %+v vs %+v", i, r1.Buffers[i], r2.Buffers[i])
		}
	}
}

func TestFlowAtRelaxedPeriod(t *testing.T) {
	// At µT+4σ essentially every chip passes: few or no buffers inserted.
	g, muT, pl := buildBench(t, 20, 100, 41)
	eng := mc.New(g, 555)
	ps := eng.PeriodDistribution(800)
	cfg := Config{T: muT + 4*ps.Sigma, Samples: 200, Seed: 5}
	res, err := Run(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ZeroViolation < 150 {
		t.Fatalf("most samples should pass at µT+4σ, got %d/200 clean", res.Stats.ZeroViolation)
	}
	if len(res.Buffers) > 5 {
		t.Fatalf("too many buffers at a relaxed period: %d", len(res.Buffers))
	}
}

func TestMaxBuffersCap(t *testing.T) {
	g, muT, pl := buildBench(t, 30, 150, 21)
	cfg := Config{T: muT, Samples: 200, Seed: 3, MaxBuffers: 2}
	res, err := Run(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) > 2 {
		t.Fatalf("cap violated: %d groups", len(res.Groups))
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Cfg: Config{Spec: BufferSpec{MaxRange: 100, Steps: 20}}}
	r.Groups = []Group{
		{FFs: []int{1}, Lo: -10, Hi: 40},
		{FFs: []int{2}, Lo: 0, Hi: 20},
	}
	if r.NumPhysicalBuffers() != 2 {
		t.Fatal("Nb")
	}
	// Ranges: 50/5=10 steps and 20/5=4 steps → avg 7.
	if got := r.AvgRangeSteps(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("Ab = %v", got)
	}
	empty := &Result{Cfg: Config{Spec: BufferSpec{MaxRange: 100, Steps: 20}}}
	if empty.AvgRangeSteps() != 0 {
		t.Fatal("empty Ab")
	}
}
