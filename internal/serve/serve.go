package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/shard"
	"repro/internal/shard/chaos"
	"repro/internal/timing"
	"repro/internal/yield"
)

// Config sizes the server's caches and limits.
type Config struct {
	// MaxBenches caps the prepared-bench LRU (default 8). Preparation is
	// seconds of SSTA per circuit; evicted benches are simply re-prepared.
	MaxBenches int
	// MaxPlans caps the per-bench insertion-result LRU (default 64).
	MaxPlans int
	// MaxPopulations caps the per-bench chip-population LRU (default 4).
	MaxPopulations int
	// MaxPopulationMB bounds one cached population (default 256 MiB);
	// larger evaluation universes stream from the engine instead.
	MaxPopulationMB int
	// MaxInflight bounds concurrently served requests; excess requests get
	// 429 (default 4 × GOMAXPROCS).
	MaxInflight int
	// MaxBodyBytes bounds a request body (default 16 MiB — inline .bench
	// netlists are the large case).
	MaxBodyBytes int64
	// Workers lists shard-worker base URLs (other bufinsd processes). When
	// non-empty this server coordinates the Monte Carlo sample loops of
	// /v1/insert and /v1/yield across them: contiguous k-ranges are
	// dispatched to /v1/shard/* on the workers and the k-indexed partials
	// merge into byte-identical final stats. Ranges of failed workers are
	// re-dispatched; with every worker down the server degrades to
	// in-process execution.
	Workers []string
	// Shards is the number of contiguous k-ranges per distributed pass
	// (0 = 4 per registered worker: enough granularity that losing a worker
	// re-dispatches a fraction of the run, not half of it).
	Shards int
	// Dispatch tunes the dispatch plane's failure handling (deadlines,
	// retries, breakers, hedging); the zero value selects shard.Options'
	// defaults.
	Dispatch shard.Options
	// Codec is ignored.
	//
	// Deprecated: the shard plane speaks only the binary frame
	// (CodecBinary), so there is nothing left to select.
	Codec string
	// StoreDir, when set, backs the prepared-bench LRU with a persistent
	// content-addressed snapshot store in that directory: first prepares
	// write a checksummed snapshot, and a restarted server re-attaches in
	// milliseconds instead of re-running seconds of SSTA. Corrupt or
	// version-skewed entries are quarantined and re-prepared fresh.
	StoreDir string
	// ChaosWorker, when set to one of the Workers base URLs, wraps that
	// worker's transport in a deterministic fault-injection schedule
	// (ChaosSeed, ChaosRate, ChaosFaults — nil means every fault kind).
	// The CI chaos smoke uses this to prove the dispatch plane recovers;
	// it has no place in production configs.
	ChaosWorker string
	ChaosSeed   uint64
	ChaosRate   float64
	ChaosFaults []chaos.Kind
}

func (c *Config) fill() {
	if c.MaxBenches <= 0 {
		c.MaxBenches = 8
	}
	if c.MaxPlans <= 0 {
		c.MaxPlans = 64
	}
	if c.MaxPopulations <= 0 {
		c.MaxPopulations = 4
	}
	if c.MaxPopulationMB <= 0 {
		c.MaxPopulationMB = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
}

// Request size limits. A yield pass keeps two int32 thresholds per chip
// per sweep and an insertion pass one outcome per sample, so an unbounded
// count exhausts memory, and the Go runtime's out-of-memory error kills
// the process rather than failing the request. Requests over a limit get
// 400 naming it. Every in-repo caller stays far below them.
const (
	// maxEvalSamples bounds a yield request's eval_samples.
	maxEvalSamples = 1 << 24
	// maxInsertSamples bounds an insertion request's samples.
	maxInsertSamples = 1 << 20
	// maxSweepSamples bounds eval_samples × the expanded sweep count:
	// at most 256 MiB of per-chip thresholds.
	maxSweepSamples = 1 << 25
)

// checkStrata validates a yield pass's strata field, which sizes its
// tallies (one histogram per stratum): within [0, yield.MaxStrata] and,
// when stratified (> 1), at most half of eval_samples — the rules
// yield.NewAdaptive applies to the waves it sends.
func checkStrata(strata, evalSamples int) error {
	if strata < 0 || strata > yield.MaxStrata {
		return badRequest("strata %d outside [0, %d]", strata, yield.MaxStrata)
	}
	if strata > 1 && strata > evalSamples/2 {
		return badRequest("strata %d exceeds half of eval_samples %d", strata, evalSamples)
	}
	return nil
}

// solveWorkers bounds a request's solve parallelism to [0, GOMAXPROCS]
// (0 = all cores). mc starts one goroutine per worker, each with its own
// graph-sized chip and pooled solver, so an unbounded client-chosen count
// scales memory with the request rather than the machine. Outcomes are
// deterministic in (seed, k), so the bound cannot change a result.
func solveWorkers(n int) int { return min(max(n, 0), runtime.GOMAXPROCS(0)) }

// checkSamples validates a request's sample count field against its limit.
func checkSamples(field string, n, limit int) error {
	if n <= 0 {
		return badRequest("need %s > 0", field)
	}
	if n > limit {
		return badRequest("%s %d exceeds the limit of %d", field, n, limit)
	}
	return nil
}

// Prepare size limits. gen.Generate and the prepare step allocate in
// proportion to each of these fields, so an oversized (or negative) one
// exhausts memory or panics inside the bench entry's once. Prepare, insert
// and yield requests over a limit get 400 naming it before anything is
// built or cached. Each limit sits far above the paper's largest circuits
// (pci_bridge32: 3,321 FFs; s38584: 19,253 gates) and above the defaults.
const (
	// maxGenFFs bounds a generated circuit's NumFFs, NumPIs, NumPOs and
	// LocalityWindow.
	maxGenFFs = 1 << 16
	// maxGenGates bounds a generated circuit's NumGates.
	maxGenGates = 1 << 18
	// maxGenSources bounds a generated circuit's MaxSources (default 5):
	// the launch FFs per cone, so pairs grow as NumFFs × MaxSources.
	maxGenSources = 1 << 5
	// maxPeriodSamples bounds options.PeriodSamples (default 4000).
	maxPeriodSamples = 1 << 20
	// maxRegions bounds options.Regions: every gate delay carries one
	// sensitivity per process parameter per region.
	maxRegions = 1 << 6
)

// checkPrepare validates the size fields of a request's circuit spec and
// prepare options against the prepare limits. Zero selects a default.
func checkPrepare(spec CircuitSpec, opt expt.Options) error {
	type field struct {
		name     string
		n, limit int
	}
	fields := []field{
		{"options.PeriodSamples", opt.PeriodSamples, maxPeriodSamples},
		{"options.Regions", opt.Regions, maxRegions},
	}
	if g := spec.Gen; g != nil {
		fields = append(fields,
			field{"gen.NumFFs", g.NumFFs, maxGenFFs},
			field{"gen.NumGates", g.NumGates, maxGenGates},
			field{"gen.NumPIs", g.NumPIs, maxGenFFs},
			field{"gen.NumPOs", g.NumPOs, maxGenFFs},
			field{"gen.MaxSources", g.MaxSources, maxGenSources},
			field{"gen.LocalityWindow", g.LocalityWindow, maxGenFFs},
		)
	}
	for _, f := range fields {
		if f.n < 0 || f.n > f.limit {
			return badRequest("%s %d outside the limits [0, %d]", f.name, f.n, f.limit)
		}
	}
	return nil
}

// checkSweepSamples validates the chip count against the expanded sweep
// count of a yield request.
func checkSweepSamples(n, sweeps int) error {
	if sweeps > 0 && n > maxSweepSamples/sweeps {
		return badRequest("eval_samples × sweeps = %d × %d exceeds the limit of %d", n, sweeps, maxSweepSamples)
	}
	return nil
}

// Service is the paper's flow as three calls: prepare the SSTA model, run
// the sampling insertion flow (a per-sample repair of every chip), count
// Monte Carlo yield. A Server answers
// them in this process, a Client forwards them to a bufinsd daemon; both
// run the same deterministic code on the same seeds, so a caller holding
// a Service gets byte-identical answers from either.
type Service interface {
	Prepare(ctx context.Context, req PrepareRequest) (*PrepareResponse, error)
	Insert(ctx context.Context, req InsertRequest) (*InsertResponse, error)
	Yield(ctx context.Context, req YieldRequest) (*YieldResponse, error)
}

var (
	_ Service = (*Server)(nil)
	_ Service = (*Client)(nil)
)

// Server answers insertion and yield queries from warm prepared-benchmark
// state. Safe for concurrent use; create with New.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	mu      sync.Mutex
	benches *lruCache // bench key → *benchEntry

	// pool is the shard-worker registry (nil unless Config.Workers is set);
	// chaos is the fault-injection transport when Config.ChaosWorker named a
	// worker (nil otherwise).
	pool  *shard.Pool
	chaos *chaos.Transport

	// store is the persistent prepared-bench store (nil unless
	// Config.StoreDir is set).
	store *benchStore

	inflight chan struct{}
	m        metrics
}

// metrics are the /metrics counters. All fields are atomics so handlers
// never contend on a lock for accounting.
type metrics struct {
	requests  [nEndpoints]atomic.Int64
	errors    [nEndpoints]atomic.Int64
	rejected  atomic.Int64
	inflight  atomic.Int64
	benchHit  atomic.Int64
	benchMiss atomic.Int64
	planHit   atomic.Int64
	planMiss  atomic.Int64
	popHit    atomic.Int64
	popMiss   atomic.Int64
	whatIf    atomic.Int64
	// whatIfRecord and whatIfFull count the period chips of what-ifs that
	// the bench's period record decided and that were realized in full
	// (expt.WhatIfResult.Chips).
	whatIfRecord atomic.Int64
	whatIfFull   atomic.Int64
	// benchPanic and planPanic count panics recoverPanic turned into a 500
	// in the bench and plan singleflights.
	benchPanic atomic.Int64
	planPanic  atomic.Int64

	// Adaptive (eps > 0) yield accounting: nominal vs actually realized
	// samples, dispatch waves, and how each adaptive request ended (the
	// early-stop ratio is adEarlyStop / (adEarlyStop + adCap)).
	adSamplesReq  atomic.Int64
	adSamplesUsed atomic.Int64
	adWaves       atomic.Int64
	adEarlyStop   atomic.Int64
	adCap         atomic.Int64

	// Persistent prepared-bench store accounting (StoreDir only): hits
	// restored a bench from disk, misses found no entry, invalid counts
	// quarantined entries (bad checksum/version/shape), writes counts
	// persisted prepares.
	storeHit     atomic.Int64
	storeMiss    atomic.Int64
	storeInvalid atomic.Int64
	storeWrites  atomic.Int64
}

type endpoint int

const (
	epPrepare endpoint = iota
	epInsert
	epYield
	epInsertPass
	epYieldPass
	epHealthz
	epMetrics
	nEndpoints
)

var endpointNames = [nEndpoints]string{"prepare", "insert", "yield", "shard_insert_pass", "shard_yield_pass", "healthz", "metrics"}

// benchEntry is one cached prepared benchmark with its warm query state:
// the solver-pool Runner and the per-(seed, n) chip populations shared by
// every request on this circuit. The prepare step runs once (sync.Once),
// so concurrent first requests on a circuit pay one SSTA, not N.
type benchEntry struct {
	key  string
	prep func() (*expt.Bench, error)
	once sync.Once

	// Set by the once; read-only afterwards. panicked holds a panic the
	// once recovered; such an entry is evicted, never served.
	sys       *core.System
	runner    *insertion.Runner
	err       error
	panicked  error
	elapsedMS int64

	mu     sync.Mutex
	plans  *lruCache // insert key → *planEntry
	pops   *lruCache // "seed:n" → *popEntry
	sweeps *lruCache // query-batch hash → []*yield.SweepEvaluator
}

// planEntry computes one insert query exactly once; concurrent identical
// requests share the single flow run instead of each burning a full
// multi-second insertion (same singleflight pattern as benchEntry).
type planEntry struct {
	once sync.Once
	resp *InsertResponse
	err  error
}

// popEntry materializes one population exactly once; requests needing the
// same (seed, n) universe share the realized chips.
type popEntry struct {
	once sync.Once
	pop  *mc.Population
}

// New builds a Server with its routes installed.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		benches:  newLRU(cfg.MaxBenches),
		inflight: make(chan struct{}, cfg.MaxInflight),
	}
	if cfg.StoreDir != "" {
		s.store = &benchStore{dir: cfg.StoreDir}
	}
	if len(cfg.Workers) > 0 {
		s.pool = shard.NewPoolWith(cfg.Workers, cfg.Dispatch)
		if cfg.ChaosWorker != "" {
			t := &chaos.Transport{Sched: chaos.NewSchedule(cfg.ChaosSeed, cfg.ChaosRate, cfg.ChaosFaults...)}
			if s.pool.WrapTransport(cfg.ChaosWorker, func(rt http.RoundTripper) http.RoundTripper {
				t.Base = rt
				return t
			}) {
				s.chaos = t
			}
		}
	}
	s.mux.Handle("/v1/prepare", s.postHandler(epPrepare, call(s.Prepare)))
	s.mux.Handle("/v1/insert", s.postHandler(epInsert, call(s.Insert)))
	s.mux.Handle("/v1/yield", s.postHandler(epYield, call(s.Yield)))
	s.mux.Handle(insertPassPath, s.postHandler(epInsertPass, s.handleInsertPass))
	s.mux.Handle(yieldPassPath, s.postHandler(epYieldPass, s.handleYieldPass))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Pool exposes the shard-worker registry (nil on a plain server) — mainly
// for tests and operational probes.
func (s *Server) Pool() *shard.Pool { return s.pool }

// Handler returns the root handler (mount it on an http.Server; shutdown
// is the caller's, via http.Server.Shutdown).
func (s *Server) Handler() http.Handler { return s.mux }

// httpError carries a status code through the handler return path.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// recoverPanic runs f and returns a panic inside it as a 500 error. The
// bench and plan singleflights run their computation through it, so a
// panic fails the requests sharing that computation instead of leaving a
// half-built entry that every later request on its key would trip over.
// A panic inside an mc worker goroutine (chip realization, the insertion
// sample passes) reaches it too: mc's chunked loop recovers the worker's
// panic and raises it again on the calling goroutine, so an in-process
// insert pass that panics becomes a 500 and evicts its plan entry.
func recoverPanic(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &httpError{status: http.StatusInternalServerError, err: fmt.Errorf("internal error: %v", r)}
		}
	}()
	f()
	return nil
}

// postHandler wraps one POST endpoint: inflight limiting, body capping,
// response encoding (a binary frame for the shard passes, JSON for the
// rest), and error mapping. fn decodes the request itself.
func (s *Server) postHandler(ep endpoint, fn func(r *http.Request) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests[ep].Add(1)
		if r.Method != http.MethodPost {
			s.fail(w, ep, http.StatusMethodNotAllowed, errors.New("POST only"))
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.m.rejected.Add(1)
			s.fail(w, ep, http.StatusTooManyRequests, errors.New("server at max inflight requests"))
			return
		}
		s.m.inflight.Add(1)
		defer s.m.inflight.Add(-1)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		resp, err := fn(r)
		if err != nil {
			status := http.StatusInternalServerError
			var he *httpError
			if errors.As(err, &he) {
				status = he.status
			}
			s.fail(w, ep, status, err)
			return
		}
		if f, ok := resp.(frame); ok {
			writeFrame(w, f)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
}

func (s *Server) fail(w http.ResponseWriter, ep endpoint, status int, err error) {
	s.m.errors[ep].Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// call adapts one Service method to a postHandler callback: decode the
// JSON request, then run the method under the request's context.
func call[Req, Resp any](fn func(context.Context, Req) (Resp, error)) func(*http.Request) (any, error) {
	return func(r *http.Request) (any, error) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, badRequest("decoding request: %v", err)
		}
		return fn(r.Context(), req)
	}
}

// getBench returns the cached (or freshly prepared) bench entry for a
// circuit × options. The LRU lookup is brief; preparation itself runs
// outside the server lock, once per entry.
func (s *Server) getBench(spec CircuitSpec, opt expt.Options) (*benchEntry, bool, error) {
	if err := checkPrepare(spec, opt); err != nil {
		return nil, false, err
	}
	ck, err := spec.Key()
	if err != nil {
		return nil, false, badRequest("%v", err)
	}
	key := ck + "|" + opt.Key()
	s.mu.Lock()
	var e *benchEntry
	hit := false
	if v, ok := s.benches.get(key); ok {
		e = v.(*benchEntry)
		hit = true
		s.m.benchHit.Add(1)
	} else {
		s.m.benchMiss.Add(1)
		e = &benchEntry{
			key: key,
			prep: func() (*expt.Bench, error) {
				c, err := spec.Build()
				if err != nil {
					return nil, err
				}
				if s.store != nil {
					if b := s.storedBench(key, c, opt); b != nil {
						return b, nil
					}
				}
				b, err := expt.Prepare(c, opt)
				if err != nil {
					return nil, err
				}
				if s.store != nil {
					s.persistBench(key, b)
				}
				return b, nil
			},
			plans:  newLRU(s.cfg.MaxPlans),
			pops:   newLRU(s.cfg.MaxPopulations),
			sweeps: newLRU(8),
		}
		s.benches.put(key, e)
	}
	s.mu.Unlock()
	e.once.Do(func() {
		start := time.Now()
		e.panicked = recoverPanic(func() {
			b, err := e.prep()
			if err != nil {
				e.err = fmt.Errorf("preparing %s: %w", key, err)
				return
			}
			e.sys = core.NewSystem(b)
			e.runner = insertion.NewRunner(b.Graph, b.Placement)
		})
		e.elapsedMS = time.Since(start).Milliseconds()
		if e.panicked != nil {
			// A panic says nothing about the spec: evict the entry so the
			// next request prepares afresh.
			s.m.benchPanic.Add(1)
			s.mu.Lock()
			s.benches.removeIf(key, e)
			s.mu.Unlock()
		}
	})
	if e.panicked != nil {
		return nil, hit, e.panicked
	}
	if e.err != nil {
		// A bad circuit spec is the client's error; keep the entry cached
		// so repeated bad requests stay cheap.
		return nil, hit, badRequest("%v", e.err)
	}
	return e, hit, nil
}

// chipSource returns the evaluation sample source for (seed, n): a cached
// shared population when it fits the budget, the streaming engine
// otherwise. Replay and streaming are byte-identical by construction.
func (s *Server) chipSource(e *benchEntry, seed uint64, n int) mc.Source {
	g := e.sys.Graph()
	eng := mc.New(g, seed)
	if eng.PopulationBytes(n) > int64(s.cfg.MaxPopulationMB)<<20 {
		return eng
	}
	key := fmt.Sprintf("%d:%d", seed, n)
	e.mu.Lock()
	var pe *popEntry
	if v, ok := e.pops.get(key); ok {
		pe = v.(*popEntry)
		s.m.popHit.Add(1)
	} else {
		pe = &popEntry{}
		e.pops.put(key, pe)
		s.m.popMiss.Add(1)
	}
	e.mu.Unlock()
	pe.once.Do(func() {
		defer func() {
			if pe.pop == nil {
				// Materialize panicked; the panic goes on. Evict the entry
				// so a retry materializes afresh instead of finding it empty.
				e.mu.Lock()
				e.pops.removeIf(key, pe)
				e.mu.Unlock()
			}
		}()
		pe.pop = eng.Materialize(n)
	})
	if pe.pop == nil {
		// A concurrent requester's Materialize of this entry panicked.
		panic("serve: materializing a shared population failed")
	}
	return pe.pop
}

// Prepare warms the bench cache for a circuit × options, or answers a
// what-if probe on a fork of the cached bench.
func (s *Server) Prepare(_ context.Context, req PrepareRequest) (*PrepareResponse, error) {
	e, hit, err := s.getBench(req.Circuit, req.Options)
	if err != nil {
		return nil, err
	}
	b := e.sys.Bench()
	resp := &PrepareResponse{
		Key:          e.key,
		Name:         b.Name,
		Summary:      e.sys.Summary(),
		NS:           b.Graph.NS,
		NG:           b.Circuit.NumGates(),
		Mu:           b.Period.Mu,
		Sigma:        b.Period.Sigma,
		HoldViolRate: b.Period.HoldViolRate,
		ElapsedMS:    e.elapsedMS,
		Cached:       hit,
	}
	if len(req.WhatIf) > 0 {
		// Answered from a fork of the cached bench; nothing derived from the
		// edits is cached, so probe sweeps cannot evict prepared circuits.
		start := time.Now()
		wr, err := b.WhatIf(req.WhatIf)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		s.m.whatIf.Add(1)
		s.m.whatIfRecord.Add(int64(wr.Chips.Record))
		s.m.whatIfFull.Add(int64(wr.Chips.Full))
		resp.Mu = wr.Period.Mu
		resp.Sigma = wr.Period.Sigma
		resp.HoldViolRate = wr.Period.HoldViolRate
		resp.ElapsedMS = time.Since(start).Milliseconds()
		resp.WhatIf = true
	}
	return resp, nil
}

// resolveT turns the request's target into a concrete period using the
// bench's distribution: an explicit period wins, otherwise µT + k·σT.
func resolveT(e *benchEntry, period, targetK *float64) (float64, error) {
	switch {
	case period != nil && targetK == nil:
		return *period, nil
	case targetK != nil && period == nil:
		return e.sys.TargetPeriod(*targetK), nil
	}
	return 0, badRequest("need exactly one of period_ps, target_k")
}

// Insert runs (or replays from the plan cache) the insertion flow. ctx
// bounds the sharded passes when the server coordinates workers; an
// in-process flow runs to completion.
func (s *Server) Insert(ctx context.Context, req InsertRequest) (*InsertResponse, error) {
	if err := checkSamples("samples", req.Samples, maxInsertSamples); err != nil {
		return nil, err
	}
	e, _, err := s.getBench(req.Circuit, req.Options)
	if err != nil {
		return nil, err
	}
	T, err := resolveT(e, req.Period, req.TargetK)
	if err != nil {
		return nil, err
	}
	// Workers is deliberately not part of the key: results are
	// byte-identical across worker counts, so any cached plan answers any
	// parallelism setting.
	planKey := fmt.Sprintf("%x:%d:%d:%d", math.Float64bits(T), req.Samples, req.Seed, req.MaxBuffers)
	e.mu.Lock()
	var pe *planEntry
	hit := false
	if v, ok := e.plans.get(planKey); ok {
		pe = v.(*planEntry)
		hit = true
		s.m.planHit.Add(1)
	} else {
		pe = &planEntry{}
		e.plans.put(planKey, pe)
		s.m.planMiss.Add(1)
	}
	e.mu.Unlock()
	won := false
	pe.once.Do(func() {
		won = true
		panicked := recoverPanic(func() { s.runPlan(ctx, req, e, T, pe) })
		if panicked != nil {
			s.m.planPanic.Add(1)
			pe.resp, pe.err = nil, panicked
		}
		// Neither a panic nor the winning requester hanging up mid-flow
		// says anything about the query, so neither failure may be cached:
		// evict the entry so the next identical request recomputes.
		if panicked != nil || isCancellation(pe.err) {
			e.mu.Lock()
			e.plans.removeIf(planKey, pe)
			e.mu.Unlock()
		}
	})
	if !won && isCancellation(pe.err) && ctx.Err() == nil {
		// This request joined a flow whose requester hung up. That
		// cancellation is not this request's: the entry is evicted by now,
		// so asking again recomputes under this request's own context.
		return s.Insert(ctx, req)
	}
	if pe.err != nil {
		return nil, pe.err
	}
	resp := *pe.resp
	resp.Cached = hit
	return &resp, nil
}

// runPlan runs one insert query's flow into its plan entry: pe.resp on
// success, pe.err otherwise.
func (s *Server) runPlan(ctx context.Context, req InsertRequest, e *benchEntry, T float64, pe *planEntry) {
	start := time.Now()
	cfg := insertion.Config{
		T:          T,
		Samples:    req.Samples,
		Seed:       req.Seed,
		MaxBuffers: req.MaxBuffers,
		Workers:    solveWorkers(req.Workers),
	}
	if s.pool != nil {
		// Shard the flow's sample passes across the worker pool. The
		// executor is not part of the plan key: sharded and in-process
		// runs are byte-identical, so any cached plan answers both.
		cfg.Pass = s.coordinator(req.Circuit, req.Options, e).InsertPass(ctx, cfg)
	}
	res, err := e.runner.Run(cfg)
	if err != nil {
		if isCancellation(err) {
			pe.err = err
			return
		}
		// Deterministic in the keyed inputs, so caching the failure is
		// correct and keeps repeated bad queries cheap.
		pe.err = badRequest("insertion: %v", err)
		return
	}
	st := res.Stats
	pe.resp = &InsertResponse{
		Plan: res.Plan(e.sys.Name()),
		T:    T,
		Nb:   res.NumPhysicalBuffers(),
		Ab:   res.AvgRangeSteps(),
		Stats: InsertStats{
			Samples:          st.Samples,
			ZeroViolation:    st.ZeroViolation,
			InfeasibleStep1:  st.InfeasibleStep1,
			InfeasibleStep2:  st.InfeasibleStep2,
			SelfLoopFailures: st.SelfLoopFailures,
			MissingFrac:      st.MissingFrac,
			SkippedB1:        st.SkippedB1,
		},
		ElapsedMS: time.Since(start).Milliseconds(),
	}
}

// isCancellation reports whether err comes from a cancelled or expired
// context rather than from the query itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Yield evaluates a query batch from one shared chip pass; cancelling ctx
// stops the evaluation between chips.
func (s *Server) Yield(ctx context.Context, req YieldRequest) (*YieldResponse, error) {
	if err := checkSamples("eval_samples", req.EvalSamples, maxEvalSamples); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("need at least one query")
	}
	e, _, err := s.getBench(req.Circuit, req.Options)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	c := s.coordinator(req.Circuit, req.Options, e)
	results, sweeps, err := expandQueries(c.g, req.Queries)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := checkSweepSamples(req.EvalSamples, len(sweeps)); err != nil {
		return nil, err
	}
	prec := yield.Precision{Eps: req.Eps, Conf: req.Conf}
	if err := c.evaluate(ctx, req.EvalSamples, req.Seed, req.Queries, results, sweeps, prec); err != nil {
		return nil, asClientError(err)
	}
	s.recordAdaptive(req.EvalSamples, results)
	return &YieldResponse{
		Results:   results,
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// asClientError maps plain errors to 400 (the historical behavior of the
// yield handler: evaluation errors are malformed plans or sweeps) while
// letting already-classified httpErrors pass through.
func asClientError(err error) error {
	var he *httpError
	if errors.As(err, &he) {
		return err
	}
	return badRequest("%v", err)
}

// EvaluateQueries expands every query into its named sweeps (the plan
// alone, or the baseline.Strategies comparison set around it) and answers
// the whole batch exactly from one shared pass over n chips of src — n
// chips are realized once in total, not once per (query, strategy,
// period). It is Coordinator.Evaluate over an empty pool, the path the
// /v1/yield handler and the CLIs run too. Errors are client errors
// (malformed plans, unsorted sweeps).
func EvaluateQueries(ctx context.Context, g *timing.Graph, src mc.Source, n int, queries []YieldQuery) ([]YieldResult, error) {
	c := &Coordinator{Pool: shard.NewPool(nil), g: g, pop: func(uint64, int) mc.Source { return src }}
	return c.Evaluate(ctx, n, 0, queries, yield.Precision{})
}

// EvaluateQueriesAdaptive is the adaptive counterpart of EvaluateQueries:
// the whole batch shares one wave loop (every sweep sees every wave), so
// the rule stops only when every threshold of every query is within eps.
// It streams the stratified universe of seed from a fresh engine.
func EvaluateQueriesAdaptive(g *timing.Graph, seed uint64, n int, queries []YieldQuery, prec yield.Precision) ([]YieldResult, error) {
	if !prec.Active() {
		return nil, fmt.Errorf("serve: adaptive evaluation needs eps > 0, got %v", prec.Eps)
	}
	return (&Coordinator{Pool: shard.NewPool(nil), g: g}).Evaluate(context.TODO(), n, seed, queries, prec)
}

// expandQueries validates every query and expands it into its named sweep
// evaluators, flattened in query order. The expansion is deterministic in
// (graph, queries) — the randk baseline is seeded — so a shard worker
// expanding the same queries builds sweeps whose tallies line up
// index-for-index with the coordinator's.
func expandQueries(g *timing.Graph, queries []YieldQuery) ([]YieldResult, []*yield.SweepEvaluator, error) {
	results := make([]YieldResult, len(queries))
	var sweeps []*yield.SweepEvaluator
	for qi, q := range queries {
		if err := q.Plan.Validate(); err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", qi, err)
		}
		Ts := q.Periods
		if len(Ts) == 0 {
			Ts = []float64{q.Plan.T}
		}
		set := []baseline.Named{{Name: "plan", Groups: q.Plan.Groups}}
		if q.Strategies {
			set = baseline.Strategies(g, q.Plan.Spec, q.Plan.T, q.Plan.Groups, q.StrategySeed)
		}
		for _, st := range set {
			ev, err := yield.NewEvaluator(g, q.Plan.Spec, st.Groups)
			if err != nil {
				return nil, nil, fmt.Errorf("query %d (%s): %w", qi, st.Name, err)
			}
			sw, err := yield.NewSweepEvaluator(ev, Ts)
			if err != nil {
				return nil, nil, fmt.Errorf("query %d (%s): %w", qi, st.Name, err)
			}
			results[qi].Names = append(results[qi].Names, st.Name)
			sweeps = append(sweeps, sw)
		}
	}
	return results, sweeps, nil
}

// recordAdaptive accounts one adaptive yield request; fixed-n results
// carry no adaptive report and are skipped. The batch shares a single wave
// loop, so sample/wave counts are per request, read off the first report.
func (s *Server) recordAdaptive(requested int, results []YieldResult) {
	for _, res := range results {
		if len(res.Adaptive) == 0 {
			continue
		}
		rep := res.Adaptive[0]
		s.m.adSamplesReq.Add(int64(requested))
		s.m.adSamplesUsed.Add(int64(rep.SamplesUsed))
		s.m.adWaves.Add(int64(rep.Waves))
		if rep.Met {
			s.m.adEarlyStop.Add(1)
		} else {
			s.m.adCap.Add(1)
		}
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epHealthz].Add(1)
	s.mu.Lock()
	benches := s.benches.len()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"benches":        benches,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epMetrics].Add(1)
	s.mu.Lock()
	benches := s.benches.len()
	s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE bufinsd_requests_total counter\n")
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		fmt.Fprintf(&b, "bufinsd_requests_total{endpoint=%q} %d\n", endpointNames[ep], s.m.requests[ep].Load())
	}
	fmt.Fprintf(&b, "# TYPE bufinsd_errors_total counter\n")
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		fmt.Fprintf(&b, "bufinsd_errors_total{endpoint=%q} %d\n", endpointNames[ep], s.m.errors[ep].Load())
	}
	fmt.Fprintf(&b, "# TYPE bufinsd_rejected_total counter\nbufinsd_rejected_total %d\n", s.m.rejected.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_inflight gauge\nbufinsd_inflight %d\n", s.m.inflight.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_benches gauge\nbufinsd_benches %d\n", benches)
	fmt.Fprintf(&b, "# TYPE bufinsd_cache_hits_total counter\n")
	fmt.Fprintf(&b, "bufinsd_cache_hits_total{cache=\"bench\"} %d\n", s.m.benchHit.Load())
	fmt.Fprintf(&b, "bufinsd_cache_hits_total{cache=\"plan\"} %d\n", s.m.planHit.Load())
	fmt.Fprintf(&b, "bufinsd_cache_hits_total{cache=\"population\"} %d\n", s.m.popHit.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_whatif_total counter\nbufinsd_whatif_total %d\n", s.m.whatIf.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_whatif_chips_total counter\n")
	fmt.Fprintf(&b, "bufinsd_whatif_chips_total{path=\"record\"} %d\n", s.m.whatIfRecord.Load())
	fmt.Fprintf(&b, "bufinsd_whatif_chips_total{path=\"full\"} %d\n", s.m.whatIfFull.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_panics_total counter\n")
	fmt.Fprintf(&b, "bufinsd_panics_total{cache=\"bench\"} %d\n", s.m.benchPanic.Load())
	fmt.Fprintf(&b, "bufinsd_panics_total{cache=\"plan\"} %d\n", s.m.planPanic.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_adaptive_samples_total counter\n")
	fmt.Fprintf(&b, "bufinsd_adaptive_samples_total{kind=\"requested\"} %d\n", s.m.adSamplesReq.Load())
	fmt.Fprintf(&b, "bufinsd_adaptive_samples_total{kind=\"used\"} %d\n", s.m.adSamplesUsed.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_adaptive_waves_total counter\nbufinsd_adaptive_waves_total %d\n", s.m.adWaves.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_adaptive_queries_total counter\n")
	fmt.Fprintf(&b, "bufinsd_adaptive_queries_total{result=\"early_stop\"} %d\n", s.m.adEarlyStop.Load())
	fmt.Fprintf(&b, "bufinsd_adaptive_queries_total{result=\"cap\"} %d\n", s.m.adCap.Load())
	fmt.Fprintf(&b, "# TYPE bufinsd_cache_misses_total counter\n")
	fmt.Fprintf(&b, "bufinsd_cache_misses_total{cache=\"bench\"} %d\n", s.m.benchMiss.Load())
	fmt.Fprintf(&b, "bufinsd_cache_misses_total{cache=\"plan\"} %d\n", s.m.planMiss.Load())
	fmt.Fprintf(&b, "bufinsd_cache_misses_total{cache=\"population\"} %d\n", s.m.popMiss.Load())
	if s.store != nil {
		fmt.Fprintf(&b, "# TYPE bufinsd_store_hits_total counter\nbufinsd_store_hits_total %d\n", s.m.storeHit.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_store_misses_total counter\nbufinsd_store_misses_total %d\n", s.m.storeMiss.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_store_invalid_total counter\nbufinsd_store_invalid_total %d\n", s.m.storeInvalid.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_store_writes_total counter\nbufinsd_store_writes_total %d\n", s.m.storeWrites.Load())
	}
	if s.pool != nil {
		alive := s.pool.Alive()
		fmt.Fprintf(&b, "# TYPE bufinsd_shard_workers gauge\n")
		fmt.Fprintf(&b, "bufinsd_shard_workers{state=\"alive\"} %d\n", alive)
		fmt.Fprintf(&b, "bufinsd_shard_workers{state=\"down\"} %d\n", s.pool.Size()-alive)
		fmt.Fprintf(&b, "# TYPE bufinsd_shard_ranges_total counter\n")
		fmt.Fprintf(&b, "bufinsd_shard_ranges_total{kind=\"dispatched\"} %d\n", s.pool.C.Dispatched.Load())
		fmt.Fprintf(&b, "bufinsd_shard_ranges_total{kind=\"redispatched\"} %d\n", s.pool.C.Redispatched.Load())
		fmt.Fprintf(&b, "bufinsd_shard_ranges_total{kind=\"local\"} %d\n", s.pool.C.Local.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_shard_worker_errors_total counter\nbufinsd_shard_worker_errors_total %d\n", s.pool.C.WorkerErrors.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_shard_throttled_total counter\nbufinsd_shard_throttled_total %d\n", s.pool.C.Throttled.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_shard_corrupt_total counter\nbufinsd_shard_corrupt_total %d\n", s.pool.C.Corrupt.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_shard_hedges_total counter\n")
		fmt.Fprintf(&b, "bufinsd_shard_hedges_total{result=\"launched\"} %d\n", s.pool.C.Hedges.Load())
		fmt.Fprintf(&b, "bufinsd_shard_hedges_total{result=\"won\"} %d\n", s.pool.C.HedgeWins.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_shard_breaker_trips_total counter\nbufinsd_shard_breaker_trips_total %d\n", s.pool.C.BreakerTrips.Load())
		fmt.Fprintf(&b, "# TYPE bufinsd_shard_breaker_state gauge\n")
		for _, wk := range s.pool.Workers() {
			fmt.Fprintf(&b, "bufinsd_shard_breaker_state{worker=%q,state=%q} 1\n", wk.Base, wk.BreakerState())
		}
		if s.chaos != nil {
			fmt.Fprintf(&b, "# TYPE bufinsd_chaos_injected_total counter\n")
			for _, k := range chaos.Kinds() {
				fmt.Fprintf(&b, "bufinsd_chaos_injected_total{kind=%q} %d\n", string(k), s.chaos.Injected()[k])
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}
