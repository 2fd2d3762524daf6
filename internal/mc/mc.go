// Package mc is the Monte Carlo engine of the flow: it streams
// deterministic, independently-seeded virtual chips (samples of the timing
// graph) to per-sample workers in parallel, the way the paper's method
// emulates manufactured chips. Chips are generated on the fly and never
// retained — at 10⁴ samples on the larger benchmarks the realized delay
// vectors would not fit in memory.
package mc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stat"
	"repro/internal/timing"
)

// Engine streams chip samples from a timing graph.
//
// Ownership: the configuration fields (Seed, Workers, OnRealize, Stratify)
// are owner-set before streaming and must not be mutated while a pass is
// running. With the fields frozen, the streaming methods themselves are
// safe to call concurrently — each pass owns its worker realizers and
// claims samples through its own atomic counter, and the Graph is only
// read — so several passes (even from different goroutines of a serving
// layer) may stream from one Engine at once.
type Engine struct {
	G *timing.Graph
	// Seed selects the sample universe; chip k is deterministic in
	// (Seed, k) regardless of worker scheduling.
	Seed uint64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// OnRealize, when set, is called once per chip realization, possibly
	// concurrently from worker goroutines. It is a diagnostic hook: tests
	// use it to assert how many times a pass materializes chips (batched
	// evaluation must realize each chip exactly once per pass).
	OnRealize func(k int)
	// Stratify, when > 1, stratifies the first global variation component
	// (the die-level source every pair delay loads on) over this many
	// equal-probability bands: chip k draws gvec[0] from the normal
	// quantile band [(k mod L)/L, (k mod L+1)/L) instead of the full
	// distribution — systematic (cycling) stratification, so any
	// contiguous sample range whose length is a multiple of the
	// stratification cycle covers every band exactly evenly. Chip k stays
	// deterministic in (Seed, k, Stratify) alone, independent of worker
	// scheduling or range tiling, which is what lets the adaptive wave
	// sampler merge stratified waves from different processes. A
	// stratified universe is a different universe from the unstratified
	// one at the same seed: only the adaptive (eps > 0) evaluation paths
	// set this, so every fixed-n result stays byte-identical.
	Stratify int
}

// Source streams a deterministic chip universe to one or more consumers.
// Engine realizes chips on the fly; Population replays a realized cache.
// Each consumer fn must not retain ch and is called exactly once per
// (sample, consumer), concurrently across samples.
//
// ForEachRangeBatch covers the samples in [lo, hi), and chip k is the
// same chip whatever range it is handed out in — sample identity is
// (Seed, k), never "position within the pass" — so a set of workers
// covering disjoint ranges that tile [0, n) reproduces a single
// ForEachRangeBatch(0, n) pass exactly. A whole pass is lo = 0.
type Source interface {
	ForEachRangeBatch(lo, hi int, fns ...func(k int, ch *timing.Chip))
}

// New creates an engine.
func New(g *timing.Graph, seed uint64) *Engine {
	return &Engine{G: g, Seed: seed}
}

// streamSeed is the second PCG seed word of chip k's stream; the first is
// the engine Seed. Chip k is deterministic in (Seed, k) by construction.
func streamSeed(k int) uint64 {
	return uint64(k)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
}

// stratumNormal maps a uniform draw within stratum s of L onto the normal
// quantile band [s/L, (s+1)/L).
func stratumNormal(s, L int, u float64) float64 {
	p := (float64(s) + u) / float64(L)
	// u ∈ [0,1): p can reach exactly 0 (never 1); keep the quantile finite.
	if p <= 0 {
		p = 1e-15
	}
	return stat.NormalQuantile(p)
}

// realizer is one worker's realization state: a chip's deviate stream and
// the chip it realizes into, reused from chip to chip.
type realizer struct {
	e  *Engine
	s  timing.Stream
	ch *timing.Chip
}

func (e *Engine) newRealizer() *realizer {
	return &realizer{e: e, ch: e.G.NewChip()}
}

// realize samples chip k into r.ch. The stream is re-seeded from (Seed, k)
// and fills the chip's whole deviate buffer in one call, in draw order:
// the global vector, one deviate per pair, one per FF. Under Stratify the
// stream's first draw is instead the uniform position within chip k's
// stratum, which sets gvec[0]; the remaining deviates follow it. A warm
// call allocates nothing.
//
//contract:allocfree
func (r *realizer) realize(k int) {
	e := r.e
	r.s.Seed(e.Seed, streamSeed(k))
	dev := r.ch.Deviates()
	if e.Stratify > 1 && e.G.Dim() > 0 {
		u := r.s.Float64()
		r.s.Normals(dev[1:])
		dev[0] = stratumNormal(k%e.Stratify, e.Stratify, u)
	} else {
		r.s.Normals(dev)
	}
	e.G.RealizeDeviates(r.ch)
}

// realizeMarked samples chip k like realize on an unstratified engine,
// recording the stream's step marks (timing.Stream.NormalsMarked); ok is
// false when a mark overflowed.
//
//contract:allocfree
func (r *realizer) realizeMarked(k int, marks []uint8) (ok bool) {
	r.s.Seed(r.e.Seed, streamSeed(k))
	ok = r.s.NormalsMarked(r.ch.Deviates(), marks)
	r.e.G.RealizeDeviates(r.ch)
	return ok
}

// Chip materializes sample k (deterministic; mostly for tests and
// debugging — bulk work should use ForEachRangeBatch).
func (e *Engine) Chip(k int) *timing.Chip {
	r := e.newRealizer()
	r.realize(k)
	return r.ch
}

// chunk is the largest batch the work distributor hands out: large enough
// that the atomic claim is negligible next to even the cheapest per-sample
// work. Small ranges use smaller batches (see chunkFor) so that every worker
// gets several of them and the tail balances.
const chunk = 64

// chunkFor sizes the batches for a range of n samples over workers workers:
// min(chunk, max(1, n/(8·workers))), about eight batches per worker. The
// size depends only on n and workers, and chip k is a function of (Seed, k)
// alone, so results are the same for any batch size. Ranges of 512 chips
// per worker or more keep the full chunk.
func chunkFor(n, workers int) int {
	return min(chunk, max(1, n/(8*workers)))
}

// ForEachRangeBatch runs a multi-consumer pass over the samples [lo, hi)
// in parallel: each chip is realized exactly once and handed to every fn
// in argument order before the worker moves on. This is how multiple
// evaluation consumers (the original-yield check, the paper's strategy,
// the baseline strategies) share one sample stream instead of re-realizing
// the same population per query. Each worker owns one reusable chip
// buffer; fn must not retain ch, and is called exactly once per sample, in
// arbitrary order, concurrently.
//
// Work is handed out lock-free in chunks of contiguous sample indices via a
// single atomic counter, and each worker re-seeds one owned stream per
// sample instead of allocating a generator — so the steady-state sampling
// loop performs no locking and no heap allocations. Chip k is
// deterministic in (Seed, k) alone, regardless of worker count or
// scheduling — a worker process handed a k-range re-seeds its stream per
// sample exactly as the full pass would, so disjoint ranges covering
// [0, n) reproduce ForEachRangeBatch(0, n) bit for bit.
//
// A pass with two or more consumers certifies each chip once
// (timing.Graph.Certify) before handing it on, so every consumer decides
// "meets T with zero tuning" from the certificate instead of its own scan
// over the pairs. A single-consumer pass does not: the certificate's scan
// would be one more than the consumer's own.
func (e *Engine) ForEachRangeBatch(lo, hi int, fns ...func(k int, ch *timing.Chip)) {
	if len(fns) == 0 {
		return
	}
	certify := len(fns) >= 2
	forEachChunked(lo, hi, e.Workers, func() func(k int) {
		r := e.newRealizer()
		return func(k int) {
			r.realize(k)
			if certify {
				e.G.Certify(r.ch)
			}
			if e.OnRealize != nil {
				e.OnRealize(k)
			}
			for _, fn := range fns {
				fn(k, r.ch)
			}
		}
	})
}

// forEachChunked is the work distributor shared by Engine and Population:
// samples lo..hi-1 are claimed lock-free in chunks of contiguous indices
// via one atomic counter. Each worker goroutine calls newWorker once for
// its per-worker state and then runs the returned body per sample.
//
// A panic in newWorker or a body does not end the process from a worker
// goroutine, where no caller can recover it: the worker recovers it, every
// worker stops claiming chunks, and once all have returned the first panic
// recovered is raised again on the calling goroutine.
func forEachChunked(lo, hi, workers int, newWorker func() func(k int)) {
	n := hi - lo
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := chunkFor(n, workers)
	if workers > (n+c-1)/c {
		workers = (n + c - 1) / c
	}
	if workers < 1 {
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(int64(lo))
	var (
		stop      atomic.Bool
		panicOnce sync.Once
		panicked  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// recover() is non-nil even for panic(nil) (Go 1.21+).
				if p := recover(); p != nil {
					stop.Store(true)
					panicOnce.Do(func() { panicked = p })
				}
			}()
			body := newWorker()
			for !stop.Load() {
				start := int(next.Add(int64(c))) - c
				if start >= hi {
					return
				}
				end := min(start+c, hi)
				for k := start; k < end; k++ {
					body(k)
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// PopulationBytes estimates the memory Materialize(n) would retain: the
// four realized vectors of every chip.
func (e *Engine) PopulationBytes(n int) int64 {
	return int64(n) * int64(2*len(e.G.Pairs)+2*e.G.NS) * 8
}

// Population is a materialized sample universe: chips realized once and
// retained for multi-pass workloads whose budget fits in memory (the
// insertion flow's step-1/step-2 passes iterate the same (Seed, k) stream
// two or three times). Replaying the cache is byte-identical to
// re-realizing — chip k is deterministic in (Seed, k) either way — it just
// skips the per-pass realization cost.
//
// Ownership: a Population is immutable once Materialize returns. Any
// number of replay passes — including concurrent ForEachRangeBatch calls from
// different goroutines, the sharing pattern of a long-running service —
// may run at once, because replay only reads the chip slabs. The single
// sharp edge: the *timing.Chip values handed to consumer fns (and returned
// by Chip) alias the shared slabs, so consumers must treat them as
// read-only. A cached chip has no deviate buffer, so Graph.RealizeDeviates
// panics on it instead of overwriting the universe of every other consumer.
type Population struct {
	workers int
	chips   []timing.Chip
}

// Materialize realizes chips 0..n-1 in parallel and retains them, each
// with its zero-tuning certificate (timing.Graph.Certify): a population
// exists to be replayed, so every chip is read more than once. The
// realized vectors live in four flat slabs (one per field) so replay walks
// memory contiguously.
func (e *Engine) Materialize(n int) *Population {
	np, ns := len(e.G.Pairs), e.G.NS
	dmax := make([]float64, n*np)
	dmin := make([]float64, n*np)
	setup := make([]float64, n*ns)
	hold := make([]float64, n*ns)
	p := &Population{workers: e.Workers, chips: make([]timing.Chip, n)}
	for k := 0; k < n; k++ {
		p.chips[k] = timing.Chip{
			DMax:  dmax[k*np : (k+1)*np : (k+1)*np],
			DMin:  dmin[k*np : (k+1)*np : (k+1)*np],
			Setup: setup[k*ns : (k+1)*ns : (k+1)*ns],
			Hold:  hold[k*ns : (k+1)*ns : (k+1)*ns],
		}
	}
	e.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) {
		copy(p.chips[k].DMax, ch.DMax)
		copy(p.chips[k].DMin, ch.DMin)
		copy(p.chips[k].Setup, ch.Setup)
		copy(p.chips[k].Hold, ch.Hold)
		e.G.Certify(&p.chips[k])
	})
	return p
}

// N returns the number of materialized chips.
func (p *Population) N() int { return len(p.chips) }

// Chip returns materialized chip k. The chip aliases the shared population
// slabs: treat it as read-only (see the Population ownership contract).
func (p *Population) Chip(k int) *timing.Chip { return &p.chips[k] }

// ForEachRangeBatch replays the cached chips of the sub-range [lo, hi)
// through every fn — the replay form of Engine.ForEachRangeBatch, and
// byte-identical to it on the same universe. hi must not exceed N().
func (p *Population) ForEachRangeBatch(lo, hi int, fns ...func(k int, ch *timing.Chip)) {
	if lo < 0 || hi > len(p.chips) {
		panic("mc: population smaller than requested sample range")
	}
	if len(fns) == 0 {
		return
	}
	forEachChunked(lo, hi, p.workers, func() func(k int) {
		return func(k int) {
			for _, fn := range fns {
				fn(k, &p.chips[k])
			}
		}
	})
}

// YieldAtZero returns the fraction of chips meeting period T with no
// tuning buffers — the paper's original yield Yo.
func (e *Engine) YieldAtZero(n int, T float64) stat.Yield {
	pass := make([]bool, n)
	e.ForEachRangeBatch(0, n, func(k int, ch *timing.Chip) {
		pass[k] = e.G.FeasibleAtZero(ch, T)
	})
	y := stat.Yield{Total: n}
	for _, p := range pass {
		if p {
			y.Pass++
		}
	}
	return y
}
