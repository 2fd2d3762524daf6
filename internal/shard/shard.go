// Package shard is the distribution substrate of the sharded sample loop:
// it splits a Monte Carlo sample range [0, n) into contiguous k-ranges and
// dispatches them across a pool of worker processes. The dispatch plane is
// fault-tolerant by construction:
//
//   - every worker attempt runs under a context derived from the caller's,
//     so a cancelled or deadline-expired coordinated pass releases every
//     worker immediately instead of leaking minutes of solver work;
//   - worker failures are classified (see Class): transient faults and
//     throttling retry with capped exponential backoff + jitter, corrupt
//     partials are discarded and retried without ever merging, and fatal
//     (4xx) errors abort the pass — the request is wrong, not the worker;
//   - a per-worker circuit breaker trips after consecutive failures and
//     re-admits the worker with a half-open probe, so one TCP reset backs
//     a worker off briefly instead of benching it for the whole pass;
//   - each healthy worker carries two ranges at once per Run (window), so
//     it computes the next range while the coordinator merges the last;
//   - straggling ranges are hedged: once most of a pass is acknowledged, a
//     range outstanding far longer than the observed per-range latency is
//     speculatively re-dispatched to another worker, first acknowledgment
//     wins, and the loser is cancelled through its context.
//
// The package is deliberately ignorant of what a range computes. The
// caller supplies two closures — post(ctx, worker, range, commit) executes
// a range on a worker over HTTP and merges its partial result, local(ctx,
// range) computes the same range in-process — and the pool guarantees
// every range is acknowledged by exactly one of them: post must call
// commit() before merging and discard its partial when commit reports the
// range was already acknowledged (a lost hedge race). Because every
// per-sample result in the flow is k-indexed and order-independent (the mc
// seeding contract: chip k is deterministic in (Seed, k)), that guarantee
// is all a coordinator needs to merge partials into byte-identical final
// stats.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Range is a contiguous half-open sample interval [Lo, Hi).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of samples in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split tiles [0, n) with at most parts contiguous near-equal ranges, in
// ascending order. Deterministic; never returns an empty range.
func Split(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + (n-lo)/(parts-i)
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// SplitRange tiles the sub-range [lo, hi) into at most parts contiguous
// near-equal ranges — the wave form of Split, used by the adaptive
// coordinator to shard one dispatch wave across workers.
func SplitRange(lo, hi, parts int) []Range {
	out := Split(hi-lo, parts)
	for i := range out {
		out[i].Lo += lo
		out[i].Hi += lo
	}
	return out
}

// ---------------- error classification ----------------

// Class partitions worker attempt failures by what they say about the
// worker versus the request — the policy table of the retry loop.
type Class int

const (
	// ClassTransient covers transport errors (resets, refusals, timeouts)
	// and 5xx responses: the worker or the network hiccuped. Retried with
	// backoff; counts toward the worker's circuit breaker.
	ClassTransient Class = iota
	// ClassThrottled is a 429: the worker's admission limiter is full but
	// the worker is healthy. Retried with backoff; never counts toward the
	// breaker — an admission-limited worker must be backed off, not
	// benched.
	ClassThrottled
	// ClassCorrupt is a 2xx whose body failed to read or decode, or a
	// decoded partial that failed validation. The partial is discarded —
	// corrupt data must never merge — and the range retries elsewhere;
	// counts toward the breaker (the worker is producing garbage).
	ClassCorrupt
	// ClassFatal is any other 4xx: the request is wrong, not the worker.
	// Retrying it anywhere would fail identically, so the pass aborts with
	// the error.
	ClassFatal
)

// String names the class as exported on /metrics.
func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassThrottled:
		return "throttled"
	case ClassCorrupt:
		return "corrupt"
	case ClassFatal:
		return "fatal"
	}
	return "unknown"
}

// Error is a classified worker attempt failure.
type Error struct {
	Class  Class
	Status int // HTTP status when one was received, else 0
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Errf builds a classified error. Callers' post closures use it to mark
// validation failures of otherwise-2xx partials as ClassCorrupt so the
// pool discards and retries them instead of merging garbage.
func Errf(class Class, format string, args ...any) *Error {
	return &Error{Class: class, Err: fmt.Errorf(format, args...)}
}

// ClassOf extracts an error's class; unclassified errors (plain transport
// failures, test stubs) default to ClassTransient.
func ClassOf(err error) Class {
	var e *Error
	if errors.As(err, &e) {
		return e.Class
	}
	return ClassTransient
}

// classifyStatus maps an HTTP status to its failure class.
func classifyStatus(status int) Class {
	switch {
	case status == http.StatusTooManyRequests:
		return ClassThrottled
	case status >= 400 && status < 500:
		return ClassFatal
	default:
		return ClassTransient
	}
}

// ---------------- options and counters ----------------

// Options tunes the dispatch plane's failure handling. The zero value
// selects the defaults noted on each field; negative HedgeMultiple
// disables hedging.
type Options struct {
	// RangeTimeout bounds one worker attempt (0 = only the transport's
	// 10-minute patience). A hung worker costs one RangeTimeout, not the
	// full transport timeout.
	RangeTimeout time.Duration
	// MaxAttempts caps worker attempts (including hedges) per range before
	// the range falls back to in-process execution (default 4).
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 50ms); it doubles per
	// attempt up to MaxBackoff (default 2s), jittered ±50%.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold trips a worker's circuit breaker after this many
	// consecutive transient/corrupt failures (default 3); BreakerCooldown
	// is the open interval before a half-open probe re-admits it (default
	// 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HedgeQuorum is the fraction of the pass that must be acknowledged
	// before stragglers are hedged (default 0.8); HedgeMultiple is how
	// many multiples of the observed mean range latency a range may be
	// outstanding before a speculative duplicate dispatch (default 3;
	// negative disables hedging).
	HedgeQuorum   float64
	HedgeMultiple float64
	// Seed drives the deterministic backoff jitter (default 1).
	Seed uint64
}

func (o *Options) fill() {
	if o.RangeTimeout < 0 {
		o.RangeTimeout = 0
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.HedgeQuorum <= 0 || o.HedgeQuorum > 1 {
		o.HedgeQuorum = 0.8
	}
	if o.HedgeMultiple == 0 {
		o.HedgeMultiple = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Counters are the pool's cumulative dispatch statistics, exported on the
// coordinator's /metrics. All fields are atomics; read them with Load.
type Counters struct {
	// Dispatched counts ranges acknowledged by a worker.
	Dispatched atomic.Int64
	// Redispatched counts failed worker attempts that were retried (on the
	// pool or, after MaxAttempts, in-process).
	Redispatched atomic.Int64
	// Local counts ranges executed in-process (zero-worker degradation,
	// exhausted retries, or the drain after every worker tripped).
	Local atomic.Int64
	// WorkerErrors counts worker attempt failures of any class.
	WorkerErrors atomic.Int64
	// Throttled counts attempts rejected with 429 (admission-limited but
	// healthy workers; never breaker failures).
	Throttled atomic.Int64
	// Corrupt counts 2xx responses whose body failed to decode or
	// validate. The partials are discarded, never merged.
	Corrupt atomic.Int64
	// Hedges counts speculative duplicate dispatches of straggling ranges;
	// HedgeWins counts ranges whose hedge acknowledged first.
	Hedges    atomic.Int64
	HedgeWins atomic.Int64
	// BreakerTrips counts closed/half-open → open breaker transitions.
	BreakerTrips atomic.Int64
}

// ---------------- workers ----------------

// Worker is one shard worker endpoint with its health state.
type Worker struct {
	// Base is the worker's base URL, e.g. "http://10.0.0.7:8077".
	Base string

	// client carries range executions (generous timeout: a range of a big
	// circuit is minutes of solver work; per-attempt deadlines come from
	// Options.RangeTimeout); prober answers health checks and must fail
	// fast — a blackholed host must not stall every coordinated pass for
	// the transport's full patience.
	client *http.Client
	prober *http.Client
	br     breaker
	idx    int // position in the pool's registry (a Run's token slot)
}

// Down reports whether the worker's circuit breaker is open.
func (w *Worker) Down() bool { return w.br.state() == brOpen }

// BreakerState names the worker's breaker state: "closed", "half_open",
// or "open" (exported on /metrics).
func (w *Worker) BreakerState() string { return w.br.state().String() }

// PostBody sends one pre-encoded request body (of MIME type contentType)
// to a worker endpoint under ctx and returns the raw 200 response body.
// Failures come back classified (*Error): transport errors and 5xx are
// transient, 429 throttled, other 4xx fatal, and a 2xx body that cannot
// be read is corrupt — the caller must discard it, never merge it. A
// body that reads fully but fails the caller's decode must likewise be
// classified corrupt by the caller.
func (w *Worker) PostBody(ctx context.Context, path, contentType string, body []byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, &Error{Class: ClassFatal, Err: fmt.Errorf("shard: building %s%s request: %w", w.Base, path, err)}
	}
	hreq.Header.Set("Content-Type", contentType)
	resp, err := w.client.Do(hreq)
	if err != nil {
		return nil, &Error{Class: ClassTransient, Err: fmt.Errorf("shard: POST %s%s: %w", w.Base, path, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// The status arrived but the body didn't: on a 2xx this is a
		// truncated partial (corrupt — it must not merge); on an error
		// status the response was an error anyway.
		class := ClassTransient
		if resp.StatusCode == http.StatusOK {
			class = ClassCorrupt
		}
		return nil, &Error{Class: class, Status: resp.StatusCode, Err: fmt.Errorf("shard: reading %s%s response: %w", w.Base, path, err)}
	}
	if resp.StatusCode != http.StatusOK {
		class := classifyStatus(resp.StatusCode)
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, &Error{Class: class, Status: resp.StatusCode, Err: fmt.Errorf("shard: %s%s: %s (HTTP %d)", w.Base, path, e.Error, resp.StatusCode)}
		}
		return nil, &Error{Class: class, Status: resp.StatusCode, Err: fmt.Errorf("shard: %s%s: HTTP %d", w.Base, path, resp.StatusCode)}
	}
	return data, nil
}

// healthy probes the worker's health endpoint (short timeout; aborted
// early if ctx ends first).
func (w *Worker) healthy(ctx context.Context, path string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Base+path, nil)
	if err != nil {
		return false
	}
	resp, err := w.prober.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ---------------- pool ----------------

// Pool is a registry of shard workers plus the dispatch loop. Safe for
// concurrent use: several coordinated requests may Run over one Pool at
// once (each Run owns its dispatch state; breaker flags and counters are
// shared and synchronized).
type Pool struct {
	workers []*Worker
	opts    Options

	rngMu sync.Mutex
	rng   uint64

	// C aggregates dispatch counters across every Run.
	C Counters
}

// NewPool builds a pool over worker base URLs (trailing slashes trimmed,
// blanks dropped) with default Options. A nil/empty list is a valid pool
// that always degrades to local execution.
func NewPool(bases []string) *Pool { return NewPoolWith(bases, Options{}) }

// NewPoolWith builds a pool with explicit dispatch options.
func NewPoolWith(bases []string, o Options) *Pool {
	o.fill()
	p := &Pool{opts: o, rng: o.Seed}
	for _, b := range bases {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		w := &Worker{
			Base:   b,
			idx:    len(p.workers),
			client: &http.Client{Timeout: 10 * time.Minute},
			prober: &http.Client{Timeout: 2 * time.Second},
		}
		w.br.threshold = o.BreakerThreshold
		w.br.cooldown = o.BreakerCooldown
		p.workers = append(p.workers, w)
	}
	return p
}

// Options returns the pool's filled dispatch options.
func (p *Pool) Options() Options { return p.opts }

// WrapTransport wraps the range-execution transport of the worker with the
// given base URL (chaos injection, instrumentation). Reports whether a
// worker matched. Must be called before any Run uses the worker.
func (p *Pool) WrapTransport(base string, wrap func(http.RoundTripper) http.RoundTripper) bool {
	base = strings.TrimRight(strings.TrimSpace(base), "/")
	for _, w := range p.workers {
		if w.Base == base {
			rt := w.client.Transport
			if rt == nil {
				rt = http.DefaultTransport
			}
			w.client.Transport = wrap(rt)
			return true
		}
	}
	return false
}

// Workers returns the registry (read-only; breaker states change under
// Run).
func (p *Pool) Workers() []*Worker { return p.workers }

// Size returns the number of registered workers.
func (p *Pool) Size() int { return len(p.workers) }

// Alive returns the number of workers whose breaker is not open.
func (p *Pool) Alive() int {
	n := 0
	for _, w := range p.workers {
		if !w.Down() {
			n++
		}
	}
	return n
}

// Probe checks worker health at path (e.g. "/healthz"), resetting the
// breakers of workers that answer and force-opening those that don't.
// Coordinators call it before a dispatch so a worker that restarted since
// its last failure rejoins the pool. Cancelling ctx aborts in-flight
// probes (an unanswered probe then counts as down, which the next pass
// re-checks).
func (p *Pool) Probe(ctx context.Context, path string) {
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if w.healthy(ctx, path) {
				w.br.reset()
			} else if w.br.forceOpen() {
				p.C.BreakerTrips.Add(1)
			}
		}(w)
	}
	wg.Wait()
}

// jitter returns a deterministic multiplier in [0.5, 1.5) from the pool's
// seeded xorshift stream.
func (p *Pool) jitter() float64 {
	p.rngMu.Lock()
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	p.rngMu.Unlock()
	return 0.5 + float64(x>>11)/float64(1<<53)
}

// backoff returns the jittered delay before retry n (1-based): capped
// exponential growth from BaseBackoff.
func (p *Pool) backoff(n int) time.Duration {
	d := p.opts.BaseBackoff
	for i := 1; i < n && d < p.opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.opts.MaxBackoff {
		d = p.opts.MaxBackoff
	}
	return time.Duration(float64(d) * p.jitter())
}

// PostFunc executes one range on a worker and merges its partial result.
// It must call commit() after validating the response and before merging:
// commit reports whether this attempt won the range's exactly-once
// acknowledgment (a hedged duplicate loses the race and must discard its
// partial). Validation failures of a 2xx partial should come back as
// Errf(ClassCorrupt, ...) so the pool retries the range without merging.
type PostFunc func(ctx context.Context, w *Worker, r Range, commit func() bool) error

// LocalFunc executes one range in-process. The pool acknowledges the range
// itself; local merges unconditionally (it never races a worker — the
// in-process path only runs for ranges no worker attempt will touch
// again).
type LocalFunc func(ctx context.Context, r Range) error

// hedgePoll is how often an idle range driver re-evaluates the hedging
// condition while its primary attempt is outstanding.
const hedgePoll = 15 * time.Millisecond

// window is how many attempts one Run keeps in flight per healthy worker.
// With one, a worker idles while the coordinator decodes, validates and
// merges its partial and posts the next range; a second attempt fills that
// turnaround. Three measured slower than two: the extra range only splits
// the worker's CPU further.
const window = 2

// runState is the per-Run dispatch state shared by the range drivers.
type runState struct {
	ctx    context.Context
	cancel context.CancelFunc
	opts   Options

	// Dispatch tokens: an admitted worker has up to window of them (one
	// while half-open), each idle in the queue or riding an attempt.
	// slots[i] is the Run's token state of the pool's worker i.
	idle  chan *Worker
	avail atomic.Int64 // admitted workers; 0 = drain local
	tokMu sync.Mutex
	slots []slot

	total int
	acked atomic.Int64 // worker-acknowledged ranges (hedge quorum)

	latNS atomic.Int64 // successful attempt latency sum / count
	latN  atomic.Int64

	failMu  sync.Mutex
	failErr error

	timerMu sync.Mutex
	timers  []*time.Timer
	closed  bool
}

// slot is one worker's dispatch tokens within a Run.
type slot struct {
	held      int  // tokens the Run holds: idle in the queue or on an attempt
	withdrawn bool // not admitted: tokens are dropped until the re-admission
}

// fail records the first pass-fatal error and cancels the run.
func (st *runState) fail(err error) {
	st.failMu.Lock()
	if st.failErr == nil {
		st.failErr = err
	}
	st.failMu.Unlock()
	st.cancel()
}

func (st *runState) failure() error {
	st.failMu.Lock()
	defer st.failMu.Unlock()
	return st.failErr
}

func (st *runState) observe(d time.Duration) {
	st.latNS.Add(int64(d))
	st.latN.Add(1)
}

func (st *runState) meanLatency() (time.Duration, bool) {
	n := st.latN.Load()
	if n == 0 {
		return 0, false
	}
	return time.Duration(st.latNS.Load() / n), true
}

// after schedules f on the run's timer set; timers are stopped when the
// run ends so breaker re-admissions don't outlive their Run.
func (st *runState) after(d time.Duration, f func()) {
	st.timerMu.Lock()
	defer st.timerMu.Unlock()
	if st.closed {
		return
	}
	st.timers = append(st.timers, time.AfterFunc(d, f))
}

func (st *runState) stopTimers() {
	st.timerMu.Lock()
	defer st.timerMu.Unlock()
	st.closed = true
	for _, t := range st.timers {
		t.Stop()
	}
	st.timers = nil
}

// admit joins a worker to the Run with its breaker's token allowance or,
// while the breaker is open, schedules the re-admission for when the
// cooldown ends.
func (st *runState) admit(w *Worker) {
	st.tokMu.Lock()
	s := &st.slots[w.idx]
	n, wait := w.br.admission()
	if n == 0 {
		s.withdrawn = true
		st.after(wait, func() { st.admit(w) })
		st.tokMu.Unlock()
		return
	}
	s.withdrawn = false
	st.avail.Add(1)
	add := topUp(s, n)
	st.tokMu.Unlock()
	st.put(w, add)
}

// topUp raises a slot's held tokens to n and returns how many new tokens
// the caller must queue (tokMu held).
func topUp(s *slot, n int) int {
	add := max(n-s.held, 0)
	s.held += add
	return add
}

// put queues k tokens of w. Every queued token is counted in its slot's
// held, which never exceeds window, and the queue has room for window
// tokens per worker, so the sends never block.
func (st *runState) put(w *Worker, k int) {
	for ; k > 0; k-- {
		st.idle <- w
	}
}

// keep decides whether a token of w that just came back — popped from the
// queue or returned by an attempt — stays in the Run, and how many new
// tokens the caller must queue (tokMu held). Once the breaker is open,
// whoever opened it, the Run withdraws the worker once and drops its every
// token until the re-admission; a half-open breaker keeps only its single
// probe, and a closed one is topped back up to window.
func (st *runState) keep(w *Worker) (bool, int) {
	s := &st.slots[w.idx]
	n, wait := w.br.admission()
	if n == 0 && !s.withdrawn {
		s.withdrawn = true
		st.avail.Add(-1)
		st.after(wait, func() { st.admit(w) })
	}
	if s.withdrawn || s.held > n {
		s.held--
		return false, 0
	}
	return true, topUp(s, n)
}

// take reports whether a token popped from the queue may carry an attempt.
func (st *runState) take(w *Worker) bool {
	st.tokMu.Lock()
	ok, add := st.keep(w)
	st.tokMu.Unlock()
	st.put(w, add)
	return ok
}

// release returns a finished attempt's token to the queue, unless keep
// drops it.
func (st *runState) release(w *Worker) {
	st.tokMu.Lock()
	ok, add := st.keep(w)
	st.tokMu.Unlock()
	if ok {
		add++
	}
	st.put(w, add)
}

// acquire claims a dispatch token, giving up when the context ends or no
// worker remains admitted (every breaker open → nil: drain locally).
func (st *runState) acquire(ctx context.Context) *Worker {
	if st.avail.Load() == 0 {
		return nil
	}
	tick := time.NewTicker(hedgePoll)
	defer tick.Stop()
	for {
		select {
		case w := <-st.idle:
			if st.take(w) {
				return w
			}
			if st.avail.Load() == 0 {
				return nil
			}
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if st.avail.Load() == 0 {
				return nil
			}
		}
	}
}

// tryAcquire claims a dispatch token without blocking (hedge dispatch),
// skipping tokens of the worker that runs the range's primary attempt: a
// hedge on the same worker would only queue behind it.
func (st *runState) tryAcquire(primary *Worker) *Worker {
	skipped := 0
	defer func() { st.put(primary, skipped) }()
	for {
		select {
		case w := <-st.idle:
			if w == primary {
				skipped++
			} else if st.take(w) {
				return w
			}
		default:
			return nil
		}
	}
}

// Run executes every range exactly once under ctx: range drivers claim
// worker dispatch tokens (window per healthy worker) and run post on them,
// retrying classified failures with backoff across the pool (circuit
// breakers withdraw misbehaving workers and re-admit them with half-open
// probes), hedging stragglers once most of the pass is acknowledged; ranges that exhaust their attempts — or find
// no admitted worker — run in-process through local, serially, on the
// caller's goroutine. post and local run concurrently across ranges, so
// both must be safe for concurrent use (disjoint ranges merge into
// disjoint regions, which is what the serve coordinator does).
//
// The first local error, the first ClassFatal worker error, or ctx ending
// aborts the run with that error. Transient worker errors never surface as
// long as some path completes the work.
func (p *Pool) Run(ctx context.Context, ranges []Range, post PostFunc, local LocalFunc) error {
	if len(ranges) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &runState{
		ctx:    rctx,
		cancel: cancel,
		opts:   p.opts,
		idle:   make(chan *Worker, window*len(p.workers)),
		slots:  make([]slot, len(p.workers)),
		total:  len(ranges),
	}
	defer st.stopTimers()

	// Admit workers: closed breakers join with window tokens and half-open
	// ones with a single probe; open breakers are scheduled for re-admission
	// when their cooldown expires.
	for _, w := range p.workers {
		st.admit(w)
	}

	ackc := make(chan struct{}, len(ranges))
	localc := make(chan Range, len(ranges))
	var wg sync.WaitGroup
	if st.avail.Load() > 0 {
		for _, r := range ranges {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.drive(st, r, post, ackc, localc)
			}()
		}
	} else {
		// No admitted worker: pure in-process degradation.
		for _, r := range ranges {
			localc <- r
		}
	}

	remaining := len(ranges)
	for remaining > 0 {
		select {
		case <-ackc:
			remaining--
		case r := <-localc:
			p.C.Local.Add(1)
			if err := local(rctx, r); err != nil {
				st.fail(err)
			} else {
				remaining--
			}
		case <-rctx.Done():
		}
		if rctx.Err() != nil {
			break
		}
	}
	cancel()
	wg.Wait()
	st.stopTimers()
	if err := st.failure(); err != nil {
		return err
	}
	if remaining > 0 {
		// The run was cancelled from outside before completing.
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("shard: %d range(s) unaccounted for after drain", remaining)
	}
	return nil
}

// attemptResult is one finished worker attempt, reported to its driver.
type attemptResult struct {
	err   error
	hedge bool
}

// drive owns one range's lifecycle: attempt → classify → backoff/retry →
// hedge → ack, falling back to the local queue when the worker path is
// exhausted. It returns only when the range is acknowledged (worker path),
// queued for local execution, or the run is cancelled — and never while
// one of its attempts is still in flight.
func (p *Pool) drive(st *runState, r Range, post PostFunc, ackc chan<- struct{}, localc chan<- Range) {
	o := st.opts
	rctx, rcancel := context.WithCancel(st.ctx)
	defer rcancel()
	var acked atomic.Bool
	resc := make(chan attemptResult, o.MaxAttempts+1)
	attempts, inflight, hedges, retries := 0, 0, 0, 0
	var primaryStart time.Time
	var primary *Worker

	commitFor := func(hedge bool) func() bool {
		return func() bool {
			if !acked.CompareAndSwap(false, true) {
				return false
			}
			p.C.Dispatched.Add(1)
			if hedge {
				p.C.HedgeWins.Add(1)
			}
			st.acked.Add(1)
			ackc <- struct{}{}
			rcancel() // release the losing sibling attempt immediately
			return true
		}
	}

	launch := func(w *Worker, hedge bool) {
		attempts++
		inflight++
		if hedge {
			hedges++
			p.C.Hedges.Add(1)
		} else {
			primaryStart, primary = time.Now(), w
		}
		commit := commitFor(hedge)
		go func() {
			actx, acancel := rctx, context.CancelFunc(func() {})
			if o.RangeTimeout > 0 {
				actx, acancel = context.WithTimeout(rctx, o.RangeTimeout)
			}
			start := time.Now()
			err := post(actx, w, r, commit)
			acancel()
			p.settle(st, w, err, rctx, time.Since(start))
			resc <- attemptResult{err: err, hedge: hedge}
		}()
	}

	for {
		if inflight == 0 {
			if acked.Load() {
				return
			}
			if rctx.Err() != nil {
				return
			}
			if attempts >= o.MaxAttempts || st.avail.Load() == 0 {
				if retries > 0 {
					p.C.Redispatched.Add(1)
				}
				localc <- r
				return
			}
			if retries > 0 {
				p.C.Redispatched.Add(1)
				if !sleep(rctx, p.backoff(retries)) {
					return
				}
			}
			w := st.acquire(rctx)
			if w == nil {
				if rctx.Err() != nil {
					return
				}
				localc <- r
				return
			}
			launch(w, false)
			continue
		}
		select {
		case res := <-resc:
			inflight--
			if res.err == nil || acked.Load() {
				continue
			}
			if rctx.Err() != nil {
				continue // cancelled mid-attempt: nothing to retry
			}
			if ClassOf(res.err) == ClassFatal {
				st.fail(res.err)
				continue
			}
			retries++
		case <-time.After(hedgePoll):
			if hedges == 0 && attempts < o.MaxAttempts && p.shouldHedge(st, primaryStart) {
				if w := st.tryAcquire(primary); w != nil {
					launch(w, true)
				}
			}
		case <-rctx.Done():
			// Acked or run-cancelled: keep looping to drain inflight.
			res := <-resc
			inflight--
			_ = res
		}
	}
}

// settle applies one finished attempt to the worker's breaker and returns
// its token: successes and benign cancellations release it immediately,
// throttles release it after a jittered backoff without penalty, and
// transient/corrupt failures penalize the breaker — once it is open, the
// release withdraws the worker until its half-open probe.
func (p *Pool) settle(st *runState, w *Worker, err error, rctx context.Context, dur time.Duration) {
	switch {
	case err == nil:
		w.br.success()
		st.observe(dur)
	case rctx.Err() != nil:
		// The range was acknowledged elsewhere or the run is over; the
		// aborted attempt says nothing about the worker.
	default:
		p.C.WorkerErrors.Add(1)
		switch ClassOf(err) {
		case ClassThrottled:
			p.C.Throttled.Add(1)
			st.after(p.backoff(1), func() { st.release(w) })
			return
		case ClassCorrupt:
			p.C.Corrupt.Add(1)
			fallthrough
		case ClassTransient:
			if w.br.fail() {
				p.C.BreakerTrips.Add(1)
			}
		}
	}
	st.release(w)
}

// shouldHedge reports whether a straggling range qualifies for speculative
// re-dispatch: hedging enabled, most of the pass acknowledged, and the
// primary attempt outstanding for more than HedgeMultiple times the
// observed mean range latency.
func (p *Pool) shouldHedge(st *runState, primaryStart time.Time) bool {
	o := st.opts
	if o.HedgeMultiple <= 0 || primaryStart.IsZero() {
		return false
	}
	mean, ok := st.meanLatency()
	if !ok {
		return false
	}
	if float64(st.acked.Load()) < o.HedgeQuorum*float64(st.total) {
		return false
	}
	return time.Since(primaryStart) > time.Duration(o.HedgeMultiple*float64(mean))
}

// sleep waits d respecting ctx; reports false when the context ended.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
