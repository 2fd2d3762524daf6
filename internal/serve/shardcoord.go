package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/shard"
	"repro/internal/timing"
	"repro/internal/yield"
)

// This file is both halves of the sharded sample loop over the service's
// HTTP surface (binary frames, see wire.go):
//
//   - the worker half: /v1/shard/insert-pass and /v1/shard/yield-pass
//     handlers that execute one contiguous k-range against the worker's
//     warm prepared-bench LRU and return k-indexed partials;
//   - the coordinator half: Coordinator, which tiles [0, n) into ranges,
//     dispatches them over a shard.Pool, merges the partials, and hands
//     the flow an in-process-identical view.
//
// Byte identity rests on two contracts: chip k is deterministic in
// (Seed, k) (mc), and every partial is either k-indexed (insert outcomes)
// or an order-independent integer histogram (yield tallies), so merging is
// pure placement/addition. Worker loss is handled underneath by
// shard.Pool.Run: unacknowledged ranges are re-dispatched to survivors and
// drained in-process when no workers remain.

// ---------------- worker half ----------------

// The shard-pass endpoint paths, shared by route registration and the
// coordinator's dispatch.
const (
	insertPassPath = "/v1/shard/insert-pass"
	yieldPassPath  = "/v1/shard/yield-pass"
)

// handleInsertPass executes one contiguous k-range of an insertion pass.
func (s *Server) handleInsertPass(r *http.Request) (any, error) {
	req, err := decodeFrame(r, decodeInsertPassRequest)
	if err != nil {
		return nil, err
	}
	if err := checkSamples("samples", req.Samples, maxInsertSamples); err != nil {
		return nil, err
	}
	e, _, err := s.getBench(req.Circuit, req.Options)
	if err != nil {
		return nil, err
	}
	//lint:ignore contract:determinism ElapsedMS is latency accounting; the merged outcomes are unaffected
	start := time.Now()
	outcomes, err := e.runner.PassRange(r.Context(), insertion.Config{
		T:               req.T,
		Samples:         req.Samples,
		Seed:            req.Seed,
		Workers:         solveWorkers(req.Workers),
		Spec:            req.Spec,
		MaxComponent:    req.MaxComponent,
		NoConcentration: req.NoConcentration,
	}, req.Pass, req.Range.Lo, req.Range.Hi)
	if err != nil {
		if r.Context().Err() != nil {
			// The coordinator hung up (cancelled hedge loser, expired
			// deadline): the response is unread, so the status is moot.
			return nil, err
		}
		return nil, badRequest("insert pass: %v", err)
	}
	return &InsertPassResponse{
		Outcomes: outcomes,
		//lint:ignore contract:determinism ElapsedMS is latency accounting; the merged outcomes are unaffected
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// handleYieldPass tallies one contiguous chip range of a yield sweep batch.
func (s *Server) handleYieldPass(r *http.Request) (any, error) {
	req, err := decodeFrame(r, decodeYieldPassRequest)
	if err != nil {
		return nil, err
	}
	if err := checkSamples("eval_samples", req.EvalSamples, maxEvalSamples); err != nil {
		return nil, err
	}
	if err := checkStrata(req.Strata, req.EvalSamples); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("need at least one query")
	}
	if req.Range.Lo < 0 || req.Range.Hi > req.EvalSamples || req.Range.Lo > req.Range.Hi {
		return nil, badRequest("yield pass range [%d,%d) outside [0,%d)", req.Range.Lo, req.Range.Hi, req.EvalSamples)
	}
	e, _, err := s.getBench(req.Circuit, req.Options)
	if err != nil {
		return nil, err
	}
	sweeps, err := s.sweepsFor(e, req.Queries)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := checkSweepSamples(req.EvalSamples, len(sweeps)); err != nil {
		return nil, err
	}
	//lint:ignore contract:determinism ElapsedMS is latency accounting; the merged tallies are unaffected
	start := time.Now()
	// Stream the range from the engine: a worker touches only its slice of
	// the universe, so materializing the full (seed, n) population here
	// would defeat the point of sharding it. The ctx guard lets a cancelled
	// coordinator attempt — including an adaptive tail wave whose precision
	// was met elsewhere — release the worker's CPU mid-range.
	tally := yield.LocalTally(yield.Stream(e.sys.Graph(), req.Seed, 0), sweeps...)
	tallies, err := tally(r.Context(), req.Range.Lo, req.Range.Hi, req.ZeroOnly, req.Strata)
	if err != nil {
		return nil, err // partial tallies must not go on the wire
	}
	return &YieldPassResponse{
		Tallies: tallies,
		//lint:ignore contract:determinism ElapsedMS is latency accounting; the merged tallies are unaffected
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// sweepsFor expands a query batch into its sweep evaluators through the
// bench entry's small LRU: one coordinated pass sends the identical batch
// once per range, and the evaluator construction (a hold-side system per
// strategy × query) should be paid once per batch, not once per range. A
// SweepEvaluator is safe to share across concurrent range requests — it is
// read-only after construction and pools its per-worker scratch.
func (s *Server) sweepsFor(e *benchEntry, queries []YieldQuery) ([]*yield.SweepEvaluator, error) {
	data, err := json.Marshal(queries)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	key := string(sum[:])
	e.mu.Lock()
	cached, ok := e.sweeps.get(key)
	e.mu.Unlock()
	if ok {
		return cached.([]*yield.SweepEvaluator), nil
	}
	_, sweeps, err := expandQueries(e.sys.Graph(), queries)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.sweeps.put(key, sweeps)
	e.mu.Unlock()
	return sweeps, nil
}

// ---------------- coordinator half ----------------

// Coordinator shards the flow's Monte Carlo sample loops over a worker
// pool for one circuit × options. It serves the Server's Insert and Yield.
// Ranges no worker takes — every range, when the pool is empty — run in
// this process on the coordinator's own graph and runner, so in-process
// evaluation is a coordinator over an empty pool. Safe for concurrent use.
type Coordinator struct {
	// Pool is the worker registry (never nil; an empty pool runs every
	// range in-process).
	Pool *shard.Pool
	// Shards is the range count per pass (0 = 4 per registered worker,
	// minimum 1). An empty pool always runs one range.
	Shards int
	// Circuit and Options identify the prepared bench on the workers.
	Circuit CircuitSpec
	Options expt.Options

	g      *timing.Graph
	runner *insertion.Runner
	// pop, when set, supplies the plain universe (seed, n) for locally
	// drained ranges: the server's cached populations, or the caller's
	// source. Stratified adaptive waves, and every range when pop is nil,
	// stream from a fresh engine.
	pop func(seed uint64, n int) mc.Source
}

// coordinator builds the Server's per-request coordinator around a cached
// bench entry (sharing its warm runner for the local fallback). Without
// workers it runs over an empty pool and reads fixed-n chips from the
// bench's population cache.
func (s *Server) coordinator(spec CircuitSpec, opt expt.Options, e *benchEntry) *Coordinator {
	c := &Coordinator{
		Pool:    s.pool,
		Shards:  s.cfg.Shards,
		Circuit: spec,
		Options: opt,
		g:       e.sys.Graph(),
		runner:  e.runner,
	}
	if c.Pool == nil {
		c.Pool = shard.NewPool(nil)
		c.pop = func(seed uint64, n int) mc.Source { return s.chipSource(e, seed, n) }
	}
	return c
}

// ranges tiles [lo, hi) — a full pass, or one adaptive wave — and probes
// down workers so a restarted worker rejoins at the next pass or wave. An
// empty pool gets the whole range at once: splitting it would only run the
// parts one after another.
func (c *Coordinator) ranges(ctx context.Context, lo, hi int) []shard.Range {
	if c.Pool.Alive() < c.Pool.Size() {
		c.Pool.Probe(ctx, "/healthz")
	}
	parts := c.Shards
	if parts <= 0 || c.Pool.Size() == 0 {
		parts = 4 * c.Pool.Size()
	}
	return shard.SplitRange(lo, hi, max(parts, 1))
}

// InsertPass returns the distributed executor for one flow configuration:
// plug it into insertion.Config.Pass and the flow's step-1/B1/step-2
// passes each fan out over the pool and merge k-indexed outcomes. cfg must
// be the same configuration the flow runs with (before Pass is set). ctx
// bounds every pass the returned func runs: cancelling it releases every
// in-flight worker range and aborts the flow. With an empty pool it returns
// nil: the flow then runs its passes in-process, chip cache included.
func (c *Coordinator) InsertPass(ctx context.Context, cfg insertion.Config) insertion.PassFunc {
	if c.Pool.Size() == 0 {
		return nil
	}
	return func(spec insertion.PassSpec) ([]insertion.SampleOutcome, error) {
		out := make([]insertion.SampleOutcome, cfg.Samples)
		req := InsertPassRequest{
			Circuit:         c.Circuit,
			Options:         c.Options,
			T:               cfg.T,
			Samples:         cfg.Samples,
			Seed:            cfg.Seed,
			Workers:         cfg.Workers,
			Spec:            cfg.Spec,
			MaxComponent:    cfg.MaxComponent,
			NoConcentration: cfg.NoConcentration,
			Pass:            spec,
		}
		// The binary frame's shared header: marshaled once per pass, with
		// the per-range window travelling natively beside it.
		header, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		post := func(ctx context.Context, w *shard.Worker, r shard.Range, commit func() bool) error {
			resp, err := postPass(ctx, w, insertPassPath, header, r, decodeInsertPassResponse)
			if err != nil {
				return err
			}
			// Validate before committing, merge only after: a malformed
			// partial must reject the attempt (ClassCorrupt retries it
			// elsewhere without merging), and a lost hedge race must discard
			// the duplicate rather than double-write the region.
			if len(resp.Outcomes) != r.Len() {
				return shard.Errf(shard.ClassCorrupt, "serve: worker %s returned %d outcomes for range [%d,%d)", w.Base, len(resp.Outcomes), r.Lo, r.Hi)
			}
			if err := insertion.CheckOutcomes(c.g.NS, resp.Outcomes); err != nil {
				return shard.Errf(shard.ClassCorrupt, "serve: worker %s range [%d,%d): %w", w.Base, r.Lo, r.Hi, err)
			}
			if !commit() {
				return nil
			}
			copy(out[r.Lo:r.Hi], resp.Outcomes)
			return nil
		}
		local := func(ctx context.Context, r shard.Range) error {
			part, err := c.runner.PassRange(ctx, cfg, spec, r.Lo, r.Hi)
			if err != nil {
				return err
			}
			copy(out[r.Lo:r.Hi], part)
			return nil
		}
		if err := c.Pool.Run(ctx, c.ranges(ctx, 0, cfg.Samples), post, local); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// Evaluate answers a yield query batch over n chips of universe seed:
// exact fixed-n when prec is inactive, adaptive to ±prec.Eps (capped at n
// chips) otherwise. Either way yield.Drive runs the schedule and the
// coordinator tallier realizes each wave, so the results are byte-identical
// for any pool — empty, healthy, or losing workers mid-run — and
// cancelling ctx releases every in-flight range promptly.
func (c *Coordinator) Evaluate(ctx context.Context, n int, seed uint64, queries []YieldQuery, prec yield.Precision) ([]YieldResult, error) {
	results, sweeps, err := expandQueries(c.g, queries)
	if err != nil {
		return nil, err
	}
	if err := c.evaluate(ctx, n, seed, queries, results, sweeps, prec); err != nil {
		return nil, err
	}
	return results, nil
}

// evaluate is Evaluate over an already expanded batch: results and sweeps
// come from expandQueries(c.g, queries), and the reports land in results.
func (c *Coordinator) evaluate(ctx context.Context, n int, seed uint64, queries []YieldQuery, results []YieldResult, sweeps []*yield.SweepEvaluator, prec yield.Precision) error {
	reports, adaptive, err := yield.Drive(ctx, n, prec, sweeps, c.tally(queries, sweeps, n, seed))
	if err != nil {
		return err
	}
	i := 0
	for qi := range results {
		for range results[qi].Names {
			if adaptive != nil {
				results[qi].Adaptive = append(results[qi].Adaptive, adaptive[i])
			} else {
				results[qi].Reports = append(results[qi].Reports, reports[i])
			}
			i++
		}
	}
	return nil
}

// tally is the coordinator tallier for a query batch over universe
// (seed, n); sweeps is the batch's expansion. Each wave is one Pool.Run
// over its sub-ranges: worker partials are validated before the range is
// acknowledged (a malformed one, e.g. from version skew, is rejected as
// corrupt and retried elsewhere) and merged after, and ranges no worker
// takes drain through the local tallier.
func (c *Coordinator) tally(queries []YieldQuery, sweeps []*yield.SweepEvaluator, n int, seed uint64) yield.TallyFunc {
	stream := yield.Stream(c.g, seed, 0)
	local := yield.LocalTally(func(strata int) mc.Source {
		if strata == 0 && c.pop != nil {
			return c.pop(seed, n)
		}
		return stream(strata)
	}, sweeps...)
	return func(ctx context.Context, lo, hi int, zeroOnly bool, strata int) ([]yield.SweepTally, error) {
		merged := make([]yield.SweepTally, len(sweeps))
		for i, sw := range sweeps {
			merged[i] = sw.WaveTally(strata, zeroOnly)
		}
		var mu sync.Mutex
		mergeAll := func(parts []yield.SweepTally) error {
			mu.Lock()
			defer mu.Unlock()
			for i := range merged {
				if err := merged[i].Merge(parts[i]); err != nil {
					return err
				}
			}
			return nil
		}
		req := YieldPassRequest{
			Circuit:     c.Circuit,
			Options:     c.Options,
			EvalSamples: n,
			Seed:        seed,
			Queries:     queries,
			ZeroOnly:    zeroOnly,
			Strata:      strata,
		}
		header, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		post := func(ctx context.Context, w *shard.Worker, r shard.Range, commit func() bool) error {
			resp, err := postPass(ctx, w, yieldPassPath, header, r, decodeYieldPassResponse)
			if err != nil {
				return err
			}
			if err := yield.CheckWave(sweeps, resp.Tallies, r.Lo, r.Hi, zeroOnly, strata); err != nil {
				return shard.Errf(shard.ClassCorrupt, "serve: worker %s range [%d,%d): %w", w.Base, r.Lo, r.Hi, err)
			}
			if !commit() {
				return nil // lost hedge race: the range already merged
			}
			if err := mergeAll(resp.Tallies); err != nil {
				// Post-commit merge failures cannot retry (the range is already
				// acknowledged); abort the wave explicitly rather than finish
				// with a silently short tally.
				return shard.Errf(shard.ClassFatal, "serve: merging range [%d,%d): %w", r.Lo, r.Hi, err)
			}
			return nil
		}
		drain := func(ctx context.Context, r shard.Range) error {
			parts, err := local(ctx, r.Lo, r.Hi, zeroOnly, strata)
			if err != nil {
				return err
			}
			return mergeAll(parts)
		}
		if err := c.Pool.Run(ctx, c.ranges(ctx, lo, hi), post, drain); err != nil {
			return nil, err
		}
		return merged, nil
	}
}
