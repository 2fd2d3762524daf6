package mc

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/leakcheck"
	"repro/internal/ssta"
	"repro/internal/stat"
	"repro/internal/timing"
	"repro/internal/variation"
)

func buildEngine(t *testing.T, ffs, gates int, seed uint64) *Engine {
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
	return New(g, 12345)
}

// sameChip reports whether a and b hold bit-identical DMax, DMin, Setup
// and Hold vectors.
func sameChip(a, b *timing.Chip) bool {
	for _, v := range [][2][]float64{{a.DMax, b.DMax}, {a.DMin, b.DMin}, {a.Setup, b.Setup}, {a.Hold, b.Hold}} {
		if len(v[0]) != len(v[1]) {
			return false
		}
		for i := range v[0] {
			if math.Float64bits(v[0][i]) != math.Float64bits(v[1][i]) {
				return false
			}
		}
	}
	return true
}

// cloneChip copies the realized vectors of ch.
func cloneChip(ch *timing.Chip) *timing.Chip {
	return &timing.Chip{
		DMax:  append([]float64(nil), ch.DMax...),
		DMin:  append([]float64(nil), ch.DMin...),
		Setup: append([]float64(nil), ch.Setup...),
		Hold:  append([]float64(nil), ch.Hold...),
	}
}

func TestChipDeterministicAcrossScheduling(t *testing.T) {
	e := buildEngine(t, 20, 100, 1)
	// Chip k from the direct API.
	direct := e.Chip(7)
	// Same chip observed through a pass with varying worker counts.
	for _, workers := range []int{1, 4} {
		e.Workers = workers
		var got *timing.Chip
		e.ForEachRangeBatch(0, 10, func(k int, ch *timing.Chip) {
			if k == 7 {
				got = cloneChip(ch)
			}
		})
		if !sameChip(got, direct) {
			t.Fatalf("workers=%d: chip 7 differs from the direct API", workers)
		}
	}
}

func TestForEachCoversAllSamplesOnce(t *testing.T) {
	e := buildEngine(t, 10, 40, 2)
	// Small ranges get batches below chunk; every size must still cover
	// each sample exactly once.
	for _, n := range []int{1, 7, 150, 500} {
		for _, workers := range []int{1, 2, 3, 8} {
			e.Workers = workers
			var count int64
			seen := make([]int32, n)
			e.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) {
				atomic.AddInt64(&count, 1)
				atomic.AddInt32(&seen[k], 1)
			})
			if count != int64(n) {
				t.Fatalf("n=%d workers=%d: count = %d", n, workers, count)
			}
			for k, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: sample %d seen %d times", n, workers, k, c)
				}
			}
		}
	}
	for _, c := range []struct{ n, workers, want int }{
		{150, 2, 9}, {3, 8, 1}, {1024, 2, 64}, {1500, 2, 64}, {100000, 2, 64},
	} {
		if got := chunkFor(c.n, c.workers); got != c.want {
			t.Errorf("chunkFor(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestForEachPanicReachesCaller: a panic in a consumer on a worker
// goroutine is re-raised on the caller once every worker has returned —
// for a streamed pass, a replayed population and a sub-range.
func TestForEachPanicReachesCaller(t *testing.T) {
	e := buildEngine(t, 20, 100, 5)
	e.Workers = 4
	pop := e.Materialize(2000)
	type planted struct{ k int }
	passes := map[string]func(fn func(k int, ch *timing.Chip)){
		"engine":     func(fn func(k int, ch *timing.Chip)) { e.ForEachRangeBatch(0, 2000, fn) },
		"population": func(fn func(k int, ch *timing.Chip)) { pop.ForEachRangeBatch(0, 2000, fn) },
		"range":      func(fn func(k int, ch *timing.Chip)) { e.ForEachRangeBatch(500, 2000, fn) },
	}
	for name, pass := range passes {
		check := leakcheck.Guard(t)
		got := func() (p any) {
			defer func() { p = recover() }()
			pass(func(k int, ch *timing.Chip) {
				if k == 600 {
					panic(planted{k})
				}
			})
			return nil
		}()
		if got != (planted{600}) {
			t.Errorf("%s: caller recovered %v, want the planted panic", name, got)
		}
		check()
	}
}

// TestForEachChunkedStopsAfterPanic: once a worker panics, the others
// finish the chunk in hand and claim no more, so a pass of 2²⁶ cheap
// samples that panics on its first sample ends after a few chunks.
func TestForEachChunkedStopsAfterPanic(t *testing.T) {
	const n = 1 << 26
	var calls atomic.Int64
	got := func() (p any) {
		defer func() { p = recover() }()
		forEachChunked(0, n, 4, func() func(k int) {
			return func(k int) {
				calls.Add(1)
				if k == 0 {
					panic("planted")
				}
			}
		})
		return nil
	}()
	if got != "planted" {
		t.Fatalf("caller recovered %v, want the planted panic", got)
	}
	if c := calls.Load(); c > n/2 {
		t.Fatalf("%d of %d samples ran after a panic on the first", c, n)
	}
}

func TestForEachZeroSamples(t *testing.T) {
	e := buildEngine(t, 5, 10, 3)
	called := false
	e.ForEachRangeBatch(0, 0, func(k int, ch *timing.Chip) { called = true })
	if called {
		t.Fatal("fn must not be called for n=0")
	}
}

func TestPeriodDistributionSane(t *testing.T) {
	e := buildEngine(t, 40, 250, 4)
	ps := e.PeriodDistribution(2000)
	if ps.Mu <= 0 || ps.Sigma <= 0 {
		t.Fatalf("stats = %+v", ps)
	}
	// Sigma should be a plausible fraction of the mean for this model.
	rel := ps.Sigma / ps.Mu
	if rel < 0.01 || rel > 0.5 {
		t.Fatalf("relative sigma %v implausible", rel)
	}
	if ps.Samples != 2000 {
		t.Fatalf("samples = %d", ps.Samples)
	}
}

func TestYieldMatchesPeriodQuantiles(t *testing.T) {
	// Yo at µT must be ≈50 %, at µT+σ ≈84 %, at µT+2σ ≈97.7 % when the
	// period distribution is near normal and hold violations are rare —
	// exactly the paper's construction of Table I's three targets.
	e := buildEngine(t, 60, 400, 5)
	ps := e.PeriodDistribution(4000)
	if ps.HoldViolRate > 0.02 {
		t.Fatalf("hold violations too common: %v", ps.HoldViolRate)
	}
	for _, tc := range []struct {
		T    float64
		want float64
		tol  float64
	}{
		{ps.Mu, 0.50, 0.06},
		{ps.Mu + ps.Sigma, 0.8413, 0.05},
		{ps.Mu + 2*ps.Sigma, 0.9772, 0.03},
	} {
		y := e.YieldAtZero(4000, tc.T)
		if math.Abs(y.Rate()-tc.want) > tc.tol {
			t.Fatalf("yield at T=%v: %v, want ≈%v", tc.T, y.Rate(), tc.want)
		}
	}
}

func TestYieldAtZeroMonotoneInT(t *testing.T) {
	e := buildEngine(t, 30, 150, 6)
	ps := e.PeriodDistribution(1000)
	y1 := e.YieldAtZero(1000, ps.Mu-ps.Sigma)
	y2 := e.YieldAtZero(1000, ps.Mu)
	y3 := e.YieldAtZero(1000, ps.Mu+2*ps.Sigma)
	if !(y1.Pass <= y2.Pass && y2.Pass <= y3.Pass) {
		t.Fatalf("yield not monotone: %d %d %d", y1.Pass, y2.Pass, y3.Pass)
	}
}

func TestSeedChangesUniverse(t *testing.T) {
	e1 := buildEngine(t, 15, 80, 7)
	e2 := New(e1.G, e1.Seed+1)
	c1 := e1.Chip(0)
	c2 := e2.Chip(0)
	same := true
	for p := range c1.DMax {
		if c1.DMax[p] != c2.DMax[p] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different chips")
	}
}

func TestYieldType(t *testing.T) {
	y := stat.Yield{Pass: 3, Total: 4}
	if y.Percent() != 75 {
		t.Fatal("stat.Yield wiring")
	}
}

func TestForEachBatchRealizesOncePerChip(t *testing.T) {
	// The batched pass must realize each chip exactly once and hand the
	// same realization to every consumer.
	e := buildEngine(t, 15, 80, 21)
	n := 300
	var realized atomic.Int64
	e.OnRealize = func(k int) { realized.Add(1) }
	sig1 := make([]float64, n)
	sig2 := make([]float64, n)
	calls1 := make([]int32, n)
	calls2 := make([]int32, n)
	e.ForEachRangeBatch(0, n,
		func(k int, ch *timing.Chip) {
			sig1[k] = ch.DMax[0] + ch.Setup[0]
			atomic.AddInt32(&calls1[k], 1)
		},
		func(k int, ch *timing.Chip) {
			sig2[k] = ch.DMax[0] + ch.Setup[0]
			atomic.AddInt32(&calls2[k], 1)
		})
	if got := realized.Load(); got != int64(n) {
		t.Fatalf("realized %d chips for an n=%d batch pass", got, n)
	}
	for k := 0; k < n; k++ {
		if calls1[k] != 1 || calls2[k] != 1 {
			t.Fatalf("chip %d: consumer calls %d/%d, want 1/1", k, calls1[k], calls2[k])
		}
		if sig1[k] != sig2[k] {
			t.Fatalf("chip %d: consumers saw different realizations", k)
		}
	}
	// Zero consumers: no work, no realizations.
	realized.Store(0)
	e.ForEachRangeBatch(0, n)
	if realized.Load() != 0 {
		t.Fatal("a pass with no consumers must not realize chips")
	}
}

func TestPopulationMatchesEngine(t *testing.T) {
	e := buildEngine(t, 20, 100, 23)
	n := 150
	pop := e.Materialize(n)
	if pop.N() != n {
		t.Fatalf("N = %d", pop.N())
	}
	// Cached chips are byte-identical to on-the-fly realization.
	for _, k := range []int{0, 1, 63, 64, n - 1} {
		direct := e.Chip(k)
		got := pop.Chip(k)
		for p := range direct.DMax {
			if got.DMax[p] != direct.DMax[p] || got.DMin[p] != direct.DMin[p] {
				t.Fatalf("chip %d differs from engine at pair %d", k, p)
			}
		}
		for f := range direct.Setup {
			if got.Setup[f] != direct.Setup[f] || got.Hold[f] != direct.Hold[f] {
				t.Fatalf("chip %d differs from engine at FF %d", k, f)
			}
		}
	}
	// Replay covers every sample once, for full and partial n.
	for _, m := range []int{n, 70} {
		seen := make([]int32, m)
		pop.ForEachRangeBatch(0, m, func(k int, ch *timing.Chip) {
			atomic.AddInt32(&seen[k], 1)
		})
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("replay(%d): sample %d seen %d times", m, k, c)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("replaying beyond the materialized count must panic")
		}
	}()
	pop.ForEachRangeBatch(0, n+1, func(k int, ch *timing.Chip) {})
}

func TestStatsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	// The chunked lock-free distributor must not change any population
	// statistic: chip k is deterministic in (Seed, k), results land in
	// k-indexed arrays, and reductions run sequentially — so yield and
	// period statistics are byte-identical for any worker count.
	e := buildEngine(t, 25, 120, 11)
	e.Workers = 1
	ref := e.PeriodDistribution(300)
	refY := e.YieldAtZero(300, ref.Mu)
	for _, workers := range []int{2, 3, 8} {
		e.Workers = workers
		ps := e.PeriodDistribution(300)
		if ps != ref {
			t.Fatalf("workers=%d: period stats %+v != %+v", workers, ps, ref)
		}
		if y := e.YieldAtZero(300, ref.Mu); y != refY {
			t.Fatalf("workers=%d: yield %+v != %+v", workers, y, refY)
		}
	}
}

// TestPopulationConcurrentReplay: several passes replaying one shared
// Population at once — the multi-request sharing pattern of the serving
// layer — observe identical chips and full coverage. Meaningful under
// -race: it proves replay is read-only on the shared slabs.
func TestPopulationConcurrentReplay(t *testing.T) {
	e := buildEngine(t, 15, 60, 3)
	n := 300
	pop := e.Materialize(n)
	ref := make([]float64, n) // DMax[0] per chip from a solo pass
	pop.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) { ref[k] = ch.DMax[0] })

	const passes = 6
	sums := make([][]float64, passes)
	var wg sync.WaitGroup
	for p := 0; p < passes; p++ {
		sums[p] = make([]float64, n)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pop.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) {
				sums[p][k] = ch.DMax[0]
			})
		}(p)
	}
	wg.Wait()
	for p := 0; p < passes; p++ {
		for k := 0; k < n; k++ {
			if sums[p][k] != ref[k] {
				t.Fatalf("pass %d chip %d: concurrent replay diverged", p, k)
			}
		}
	}
}

// TestEngineConcurrentPasses: with the configuration fields frozen, two
// streaming passes on one Engine may overlap (each owns its worker chips
// and atomic counter). Run under -race.
func TestEngineConcurrentPasses(t *testing.T) {
	e := buildEngine(t, 15, 60, 4)
	n := 200
	solo := make([]float64, n)
	e.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) { solo[k] = ch.Setup[0] })

	a := make([]float64, n)
	b := make([]float64, n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) { a[k] = ch.Setup[0] })
	}()
	go func() {
		defer wg.Done()
		e.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) { b[k] = ch.Setup[0] })
	}()
	wg.Wait()
	for k := 0; k < n; k++ {
		if a[k] != solo[k] || b[k] != solo[k] {
			t.Fatalf("chip %d: concurrent engine passes diverged", k)
		}
	}
}

func TestRangeBatchTilesFullPass(t *testing.T) {
	// Disjoint ranges covering [0, n) — deliberately uneven — must together
	// hand out exactly the chips a full ForEachRangeBatch(0, n) pass does:
	// sample identity is (Seed, k), never position within the pass.
	e := buildEngine(t, 12, 50, 3)
	e.Workers = 3
	const n = 130
	full := make([][]float64, n)
	e.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) {
		full[k] = append([]float64(nil), ch.DMax...)
	})
	for _, src := range []Source{e, e.Materialize(n)} {
		got := make([][]float64, n)
		var visits atomic.Int64
		for _, r := range [][2]int{{0, 17}, {17, 64}, {64, 65}, {65, 130}} {
			src.ForEachRangeBatch(r[0], r[1], func(k int, ch *timing.Chip) {
				if k < r[0] || k >= r[1] {
					t.Errorf("sample %d outside range [%d,%d)", k, r[0], r[1])
				}
				visits.Add(1)
				got[k] = append([]float64(nil), ch.DMax...)
			})
		}
		if visits.Load() != n {
			t.Fatalf("ranges visited %d samples, want %d", visits.Load(), n)
		}
		for k := range full {
			for p := range full[k] {
				if got[k][p] != full[k][p] {
					t.Fatalf("chip %d differs at pair %d between range and full pass", k, p)
				}
			}
		}
	}
}

func TestRangeBatchEmptyAndSingleChip(t *testing.T) {
	e := buildEngine(t, 12, 50, 4)
	// An empty range is a no-op.
	e.ForEachRangeBatch(40, 40, func(k int, ch *timing.Chip) {
		t.Fatalf("empty range called fn with k=%d", k)
	})
	// A one-chip range at an odd k reproduces the direct API's chip.
	want := e.Chip(41)
	calls := 0
	e.ForEachRangeBatch(41, 42, func(k int, ch *timing.Chip) {
		calls++
		if k != 41 || !sameChip(ch, want) {
			t.Fatalf("range [41,42) handed out chip %d unlike Chip(41)", k)
		}
	})
	if calls != 1 {
		t.Fatalf("range [41,42) called fn %d times", calls)
	}
}

// TestStratifiedDeterministicAcrossTiling: under stratification chip k must
// stay a pure function of (Seed, k, Stratify) — identical from the direct
// API, the full pass, and any range tiling at any worker count. This is
// what lets the adaptive sampler merge stratified waves computed by
// different processes.
func TestStratifiedDeterministicAcrossTiling(t *testing.T) {
	e := buildEngine(t, 12, 50, 5)
	e.Stratify = 8
	const n = 96
	direct := make([]*timing.Chip, n)
	for k := 0; k < n; k++ {
		direct[k] = e.Chip(k)
	}
	for _, workers := range []int{1, 4} {
		e.Workers = workers
		for _, r := range [][2]int{{0, n}, {0, 31}, {31, 32}, {32, n}} {
			e.ForEachRangeBatch(r[0], r[1], func(k int, ch *timing.Chip) {
				if !sameChip(ch, direct[k]) {
					t.Errorf("workers=%d range %v: chip %d differs from the direct API", workers, r, k)
				}
			})
		}
	}
}

// TestStratifiedUniverseDiffers: Stratify > 1 redraws the first global
// component, so the universe must differ from the plain one at the same
// seed — and Stratify ≤ 1 must leave it untouched.
func TestStratifiedUniverseDiffers(t *testing.T) {
	plain := buildEngine(t, 12, 50, 6)
	strat := buildEngine(t, 12, 50, 6)
	strat.Stratify = 8
	same := buildEngine(t, 12, 50, 6)
	same.Stratify = 1
	differs := false
	for k := 0; k < 8 && !differs; k++ {
		a, b := plain.Chip(k), strat.Chip(k)
		for p := range a.DMax {
			if a.DMax[p] != b.DMax[p] {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Fatal("stratified universe identical to plain universe")
	}
	for k := 0; k < 4; k++ {
		a, b := plain.Chip(k), same.Chip(k)
		for p := range a.DMax {
			if a.DMax[p] != b.DMax[p] {
				t.Fatalf("Stratify=1 changed chip %d at pair %d", k, p)
			}
		}
	}
}

// TestRealizerZeroAllocs: a warm engine worker realizes each chip — the
// per-chip re-seed, the one-call deviate fill and the kernel — without a
// heap allocation, on the plain and the stratified universe.
func TestRealizerZeroAllocs(t *testing.T) {
	e := buildEngine(t, 20, 100, 23)
	for _, strata := range []int{0, 8} {
		e.Stratify = strata
		r := e.newRealizer()
		k := 0
		r.realize(k) // warm
		if avg := testing.AllocsPerRun(100, func() { k++; r.realize(k) }); avg != 0 {
			t.Fatalf("Stratify=%d: warm realize allocates %v times per chip, want 0", strata, avg)
		}
	}
}

// TestStratumChipsCountsRange: StratumChips agrees with counting Stratum
// over the range, for unaligned ranges and the unstratified settings.
func TestStratumChipsCountsRange(t *testing.T) {
	for _, stratify := range []int{-1, 0, 1, 2, 5, 16} {
		for lo := 0; lo < 20; lo++ {
			for hi := lo; hi < 40; hi++ {
				L := Strata(stratify)
				count := make([]int, L)
				for k := lo; k < hi; k++ {
					count[Stratum(k, stratify)]++
				}
				for h := 0; h < L; h++ {
					if got := StratumChips(lo, hi, h, stratify); got != count[h] {
						t.Fatalf("Stratify=%d: StratumChips(%d, %d, %d) = %d, want %d", stratify, lo, hi, h, got, count[h])
					}
				}
			}
		}
	}
}
