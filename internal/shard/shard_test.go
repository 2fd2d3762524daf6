package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestSplitTilesExactly(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{10, 3}, {1, 1}, {7, 7}, {7, 20}, {2000, 7}, {64, 1}, {5, 2},
	} {
		rs := Split(tc.n, tc.parts)
		if len(rs) > tc.parts || len(rs) > tc.n || len(rs) == 0 {
			t.Fatalf("Split(%d,%d) = %v: bad part count", tc.n, tc.parts, rs)
		}
		lo := 0
		for _, r := range rs {
			if r.Lo != lo || r.Hi <= r.Lo {
				t.Fatalf("Split(%d,%d) = %v: not a contiguous tiling", tc.n, tc.parts, rs)
			}
			lo = r.Hi
		}
		if lo != tc.n {
			t.Fatalf("Split(%d,%d) covers [0,%d), want [0,%d)", tc.n, tc.parts, lo, tc.n)
		}
	}
	if rs := Split(0, 4); rs != nil {
		t.Fatalf("Split(0,4) = %v, want nil", rs)
	}
}

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		status int
		want   Class
	}{
		{http.StatusTooManyRequests, ClassThrottled},
		{http.StatusBadRequest, ClassFatal},
		{http.StatusNotFound, ClassFatal},
		{http.StatusInternalServerError, ClassTransient},
		{http.StatusBadGateway, ClassTransient},
	}
	for _, c := range cases {
		if got := classifyStatus(c.status); got != c.want {
			t.Errorf("classifyStatus(%d) = %v, want %v", c.status, got, c.want)
		}
	}
	if ClassOf(errors.New("plain transport failure")) != ClassTransient {
		t.Error("unclassified errors must default to transient")
	}
	inner := errors.New("bad partial")
	err := fmt.Errorf("wrapped: %w", Errf(ClassCorrupt, "validate: %w", inner))
	if ClassOf(err) != ClassCorrupt {
		t.Error("class must survive error wrapping")
	}
	if !errors.Is(err, inner) {
		t.Error("classified errors must unwrap to their cause")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := breaker{threshold: 3, cooldown: 20 * time.Millisecond}
	if b.state() != brClosed || b.admitDelay() != 0 {
		t.Fatal("new breaker must admit immediately")
	}
	b.fail()
	b.fail()
	if b.state() != brClosed {
		t.Fatal("breaker tripped before threshold")
	}
	b.success()
	b.fail()
	b.fail()
	if b.state() != brClosed {
		t.Fatal("success must clear the consecutive-failure streak")
	}
	if !b.fail() {
		t.Fatal("third consecutive failure must trip the breaker")
	}
	if b.state() != brOpen || b.admitDelay() == 0 {
		t.Fatal("tripped breaker must be open with a cooldown remaining")
	}
	time.Sleep(25 * time.Millisecond)
	if b.admitDelay() != 0 || b.state() != brHalfOpen {
		t.Fatal("elapsed cooldown must re-admit half-open")
	}
	if !b.fail() {
		t.Fatal("half-open probe failure must re-open immediately")
	}
	b.probe()
	b.success()
	if b.state() != brClosed {
		t.Fatal("half-open probe success must close the breaker")
	}
}

// coverage tracks which samples were acknowledged, and by whom — the
// exactly-once checker every Run test goes through.
type coverage struct {
	mu   sync.Mutex
	seen map[int]string
}

func newCoverage() *coverage { return &coverage{seen: map[int]string{}} }

func (c *coverage) mark(r Range, who string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := r.Lo; k < r.Hi; k++ {
		if prev, dup := c.seen[k]; dup {
			return fmt.Errorf("sample %d acknowledged twice (%s then %s)", k, prev, who)
		}
		c.seen[k] = who
	}
	return nil
}

func (c *coverage) check(t *testing.T, n int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seen) != n {
		t.Fatalf("acknowledged %d samples, want %d", len(c.seen), n)
	}
}

func (c *coverage) by(who string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.seen {
		if w == who {
			n++
		}
	}
	return n
}

// fastOpts keeps the retry/breaker clockwork at test speed.
func fastOpts() Options {
	return Options{
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      4 * time.Millisecond,
		BreakerCooldown: 40 * time.Millisecond,
	}
}

func TestRunDispatchesEveryRangeOnce(t *testing.T) {
	p := NewPool([]string{"http://a/", " http://b ", ""})
	if p.Size() != 2 || p.Alive() != 2 {
		t.Fatalf("pool size %d alive %d, want 2/2", p.Size(), p.Alive())
	}
	cov := newCoverage()
	const n = 100
	err := p.Run(context.Background(), Split(n, 7),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			if !commit() {
				return nil
			}
			return cov.mark(r, w.Base)
		},
		func(ctx context.Context, r Range) error { return errors.New("local must not run") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if got := p.C.Dispatched.Load(); got != 7 {
		t.Fatalf("dispatched %d ranges, want 7", got)
	}
	if p.C.Local.Load() != 0 || p.C.Redispatched.Load() != 0 {
		t.Fatalf("unexpected local/redispatch counters: %+v", countersOf(p))
	}
}

// TestRunRetriesTransientWithoutBenching is the headline behavior change
// from mark-down-forever: a single transient fault retries with backoff and
// leaves the worker's liveness untouched for the rest of the pass.
func TestRunRetriesTransientWithoutBenching(t *testing.T) {
	p := NewPoolWith([]string{"http://good", "http://flaky"}, fastOpts())
	cov := newCoverage()
	const n = 90
	flakyFailed := make(chan struct{})
	var failOnce sync.Once
	failed := false
	err := p.Run(context.Background(), Split(n, 6),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			if w.Base == "http://flaky" {
				var fail bool
				failOnce.Do(func() { fail = true; failed = true; close(flakyFailed) })
				if fail {
					return errors.New("connection reset")
				}
			} else {
				// The good worker waits for the flaky one to have failed, so
				// the fault is guaranteed to land regardless of scheduling.
				<-flakyFailed
			}
			if !commit() {
				return nil
			}
			return cov.mark(r, w.Base)
		},
		func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if !failed {
		t.Fatal("the flaky worker never pulled a range")
	}
	if p.C.Redispatched.Load() == 0 || p.C.WorkerErrors.Load() != 1 {
		t.Fatalf("counters %+v: want one error and a redispatch", countersOf(p))
	}
	for _, w := range p.Workers() {
		if w.Down() {
			t.Fatalf("worker %s benched by a single transient fault (breaker %s)", w.Base, w.BreakerState())
		}
	}
}

// TestRunThrottledBacksOffWithoutBenching: a worker 429 (the serve layer's
// own admission limit) is backed off and retried, never counted toward the
// circuit breaker.
func TestRunThrottledBacksOffWithoutBenching(t *testing.T) {
	p := NewPoolWith([]string{"http://busy"}, fastOpts())
	cov := newCoverage()
	const n = 30
	var calls atomic.Int64
	err := p.Run(context.Background(), Split(n, 3),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			if calls.Add(1) == 1 {
				return &Error{Class: ClassThrottled, Status: http.StatusTooManyRequests, Err: errors.New("server at max inflight requests")}
			}
			if !commit() {
				return nil
			}
			return cov.mark(r, w.Base)
		},
		func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if p.C.Throttled.Load() != 1 {
		t.Fatalf("throttled counter %d, want 1", p.C.Throttled.Load())
	}
	w := p.Workers()[0]
	if w.Down() || w.BreakerState() != "closed" {
		t.Fatalf("throttled worker benched (breaker %s); admission limits must not trip breakers", w.BreakerState())
	}
	if cov.by("local") == n {
		t.Fatal("every range drained locally: the throttled worker was never retried")
	}
}

// TestRunCorruptPartialNeverMerges: a 2xx body that fails validation is
// discarded and the range retried — the merged output contains only the
// good attempt's data, and the corrupt counter ticks.
func TestRunCorruptPartialNeverMerges(t *testing.T) {
	p := NewPoolWith([]string{"http://garbler"}, fastOpts())
	cov := newCoverage()
	const n = 40
	var calls atomic.Int64
	err := p.Run(context.Background(), Split(n, 4),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			if calls.Add(1) == 1 {
				// A corrupt partial fails validation BEFORE commit: nothing
				// may be merged from it.
				return Errf(ClassCorrupt, "worker returned 3 outcomes for range [%d,%d)", r.Lo, r.Hi)
			}
			if !commit() {
				return nil
			}
			return cov.mark(r, w.Base)
		},
		func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if p.C.Corrupt.Load() != 1 {
		t.Fatalf("corrupt counter %d, want 1", p.C.Corrupt.Load())
	}
}

// TestRunBreakerTripsAndRecovers: consecutive failures trip the breaker
// (withdrawing the worker), and the elapsed cooldown re-admits it
// half-open — a later pass closes it again on success.
func TestRunBreakerTripsAndRecovers(t *testing.T) {
	o := fastOpts()
	p := NewPoolWith([]string{"http://bad", "http://good"}, o)
	bad := p.Workers()[0]
	cov := newCoverage()
	const n = 60
	var badFails atomic.Int64
	badTripped := make(chan struct{})
	badHealthy := atomic.Bool{}
	badCommitted := make(chan struct{})
	var commitOnce sync.Once
	post := func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
		if w.Base == "http://bad" && !badHealthy.Load() {
			if badFails.Add(1) == int64(p.Options().BreakerThreshold) {
				defer close(badTripped)
			}
			return errors.New("connection refused")
		}
		if w.Base == "http://good" && !badHealthy.Load() {
			<-badTripped // hold the good worker until the bad one tripped
		}
		if w.Base == "http://bad" {
			commitOnce.Do(func() { close(badCommitted) })
		} else if badHealthy.Load() {
			<-badCommitted // second pass: let the revived worker win a range
		}
		if !commit() {
			return nil
		}
		return cov.mark(r, w.Base)
	}
	local := func(ctx context.Context, r Range) error { return cov.mark(r, "local") }

	if err := p.Run(context.Background(), Split(n, 8), post, local); err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if p.C.BreakerTrips.Load() < 1 {
		t.Fatalf("breaker never tripped after %d consecutive failures", badFails.Load())
	}

	// Second pass after the cooldown: the worker recovered, the half-open
	// probe must close its breaker and hand it work again.
	badHealthy.Store(true)
	time.Sleep(o.BreakerCooldown + 20*time.Millisecond)
	cov2 := newCoverage()
	cov = cov2
	if err := p.Run(context.Background(), Split(n, 8), post, local); err != nil {
		t.Fatal(err)
	}
	cov2.check(t, n)
	if bad.Down() {
		t.Fatalf("recovered worker still down (breaker %s) after a successful pass", bad.BreakerState())
	}
	if cov2.by("http://bad") == 0 {
		t.Fatal("revived worker was never handed a range")
	}
}

// TestRunHedgesStraggler: once most of the pass is acknowledged, a hung
// range is speculatively re-dispatched; the first acknowledgment wins and
// the loser is cancelled through its context — coverage stays exactly-once.
func TestRunHedgesStraggler(t *testing.T) {
	o := fastOpts()
	o.HedgeQuorum = 0.5
	o.HedgeMultiple = 1
	o.RangeTimeout = 5 * time.Second // safety net if hedging regresses
	p := NewPoolWith([]string{"http://fast", "http://slow"}, o)
	cov := newCoverage()
	const n = 100
	slowStarted := make(chan struct{})
	var startOnce sync.Once
	err := p.Run(context.Background(), Split(n, 10),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			if w.Base == "http://slow" {
				startOnce.Do(func() { close(slowStarted) })
				<-ctx.Done() // a hung worker: only cancellation frees it
				return ctx.Err()
			}
			<-slowStarted // guarantee the slow worker holds a range
			if !commit() {
				return nil
			}
			return cov.mark(r, w.Base)
		},
		func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if p.C.Hedges.Load() < 1 || p.C.HedgeWins.Load() < 1 {
		t.Fatalf("counters %+v: the straggling range was never hedged", countersOf(p))
	}
	if got := cov.by("http://slow"); got != 0 {
		t.Fatalf("hung worker acknowledged %d samples, want 0", got)
	}
}

// TestRunCancellationPromptNoLeaks: cancelling the run context mid-pass
// returns promptly (not after the transport timeout) and leaves no
// goroutines behind.
func TestRunCancellationPromptNoLeaks(t *testing.T) {
	check := leakcheck.Guard(t)
	p := NewPoolWith([]string{"http://hang"}, fastOpts())
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	var localRuns atomic.Int64
	start := time.Now()
	err := p.Run(ctx, Split(50, 5),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			<-ctx.Done()
			return ctx.Err()
		},
		func(ctx context.Context, r Range) error {
			localRuns.Add(1)
			return ctx.Err()
		})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	// No goroutine may outlive Run.
	check()
}

func TestRunFatalAborts(t *testing.T) {
	p := NewPoolWith([]string{"http://a"}, fastOpts())
	fatal := Errf(ClassFatal, "malformed request")
	err := p.Run(context.Background(), Split(20, 2),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			return fatal
		},
		func(ctx context.Context, r Range) error { return nil })
	if !errors.Is(err, fatal) {
		t.Fatalf("err = %v, want the fatal worker error", err)
	}
}

func TestRunDrainsLocallyWhenAllWorkersDie(t *testing.T) {
	p := NewPoolWith([]string{"http://a", "http://b"}, fastOpts())
	cov := newCoverage()
	const n = 40
	err := p.Run(context.Background(), Split(n, 4),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			return errors.New("down")
		},
		func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if p.Alive() != 0 {
		t.Fatalf("alive = %d, want 0 (both breakers tripped)", p.Alive())
	}
	if p.C.Local.Load() != 4 {
		t.Fatalf("local ranges %d, want all 4", p.C.Local.Load())
	}
}

func TestRunZeroWorkersDegradesToLocal(t *testing.T) {
	p := NewPool(nil)
	cov := newCoverage()
	const n = 33
	err := p.Run(context.Background(), Split(n, 5),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			return errors.New("no workers to post to")
		},
		func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if p.C.Local.Load() != 5 || p.C.Dispatched.Load() != 0 {
		t.Fatalf("counters %+v: want pure local execution", countersOf(p))
	}
}

func TestRunPropagatesLocalError(t *testing.T) {
	p := NewPool(nil)
	boom := errors.New("boom")
	err := p.Run(context.Background(), Split(10, 2),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error { return nil },
		func(ctx context.Context, r Range) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func countersOf(p *Pool) map[string]int64 {
	return map[string]int64{
		"dispatched":   p.C.Dispatched.Load(),
		"redispatched": p.C.Redispatched.Load(),
		"local":        p.C.Local.Load(),
		"errors":       p.C.WorkerErrors.Load(),
		"throttled":    p.C.Throttled.Load(),
		"corrupt":      p.C.Corrupt.Load(),
		"hedges":       p.C.Hedges.Load(),
		"hedge_wins":   p.C.HedgeWins.Load(),
		"trips":        p.C.BreakerTrips.Load(),
	}
}

// emptyPoolRunAllocs bounds the allocations of one Pool.Run over an empty
// pool (one range, drained locally) at their count under one-attempt-per-
// worker dispatch. The in-process yield path runs every wave through it, so
// the window's per-worker token state must cost it nothing.
const emptyPoolRunAllocs = 9

func TestRunEmptyPoolAllocs(t *testing.T) {
	p := NewPool(nil)
	ranges := []Range{{Lo: 0, Hi: 100}}
	post := func(ctx context.Context, w *Worker, r Range, commit func() bool) error { return nil }
	local := func(ctx context.Context, r Range) error { return nil }
	ctx := context.Background()
	got := testing.AllocsPerRun(100, func() {
		if err := p.Run(ctx, ranges, post, local); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Pool.Run over an empty pool: %v allocs", got)
	if got > emptyPoolRunAllocs {
		t.Fatalf("Pool.Run over an empty pool allocates %v times, want <= %d", got, emptyPoolRunAllocs)
	}
}

// TestRunHonorsBreakerOpenedByAnotherRun: once a worker's breaker trips,
// no Run — the one that tripped it or a concurrent one — may hand that
// worker another attempt before its cooldown. An attempt whose token was
// acquired just before the trip is a benign race, at most window per Run.
func TestRunHonorsBreakerOpenedByAnotherRun(t *testing.T) {
	o := fastOpts()
	o.BreakerCooldown = 10 * time.Second
	p := NewPoolWith([]string{"http://bad", "http://good"}, o)
	const runs, n = 2, 40
	var wg sync.WaitGroup
	errs := make([]error, runs)
	late := make([]atomic.Int64, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cov := newCoverage()
			errs[i] = p.Run(context.Background(), Split(n, n),
				func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
					if w.Base == "http://bad" {
						if w.Down() {
							late[i].Add(1)
						}
						return errors.New("connection refused")
					}
					time.Sleep(time.Millisecond) // keep both Runs overlapping
					if !commit() {
						return nil
					}
					return cov.mark(r, w.Base)
				},
				func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
			if errs[i] == nil {
				cov.mu.Lock()
				if len(cov.seen) != n {
					errs[i] = fmt.Errorf("acknowledged %d samples, want %d", len(cov.seen), n)
				}
				cov.mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := late[i].Load(); got > window {
			t.Errorf("run %d sent %d attempts to a worker whose breaker was open, want <= %d", i, got, window)
		}
	}
	if p.C.BreakerTrips.Load() != 1 {
		t.Fatalf("breaker trips %d, want 1", p.C.BreakerTrips.Load())
	}
}

// peak tracks the concurrent attempts on each worker and their maximum.
type peak struct {
	mu       sync.Mutex
	cur, max map[string]int
}

func newPeak() *peak { return &peak{cur: map[string]int{}, max: map[string]int{}} }

func (pk *peak) enter(who string) int {
	pk.mu.Lock()
	defer pk.mu.Unlock()
	pk.cur[who]++
	if pk.cur[who] > pk.max[who] {
		pk.max[who] = pk.cur[who]
	}
	return pk.cur[who]
}

func (pk *peak) leave(who string) {
	pk.mu.Lock()
	defer pk.mu.Unlock()
	pk.cur[who]--
}

func (pk *peak) top(who string) int {
	pk.mu.Lock()
	defer pk.mu.Unlock()
	return pk.max[who]
}

// awaitPeak blocks until who has had want concurrent attempts (or a
// second passed), so a test observes the window instead of racing it.
func (pk *peak) awaitPeak(who string, want int) {
	deadline := time.Now().Add(time.Second)
	for pk.top(who) < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func TestRunKeepsTwoInFlightPerWorker(t *testing.T) {
	const want = 2 // the window, spelled out: the test pins its value
	for _, bases := range [][]string{{"http://a"}, {"http://a", "http://b"}} {
		t.Run(fmt.Sprint(len(bases)), func(t *testing.T) {
			p := NewPoolWith(bases, fastOpts())
			cov := newCoverage()
			pk := newPeak()
			const n = 160
			err := p.Run(context.Background(), Split(n, 16),
				func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
					pk.enter(w.Base)
					defer pk.leave(w.Base)
					pk.awaitPeak(w.Base, want)
					time.Sleep(2 * time.Millisecond)
					if !commit() {
						return nil
					}
					return cov.mark(r, w.Base)
				},
				func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
			if err != nil {
				t.Fatal(err)
			}
			cov.check(t, n)
			for _, b := range bases {
				if got := pk.top(b); got != want {
					t.Errorf("worker %s peaked at %d concurrent attempts, want exactly %d", b, got, want)
				}
			}
		})
	}
}

// TestRunHalfOpenAdmitsOneProbe: a worker whose cooldown has elapsed gets
// one probe attempt; only its success restores the full window.
func TestRunHalfOpenAdmitsOneProbe(t *testing.T) {
	p := NewPoolWith([]string{"http://a"}, fastOpts())
	w := p.Workers()[0]
	w.br.forceOpen()
	w.br.openedAt = time.Now().Add(-time.Minute) // cooldown long over
	cov := newCoverage()
	pk := newPeak()
	var calls, duringProbe atomic.Int64
	const n = 80
	err := p.Run(context.Background(), Split(n, 8),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			pk.enter(w.Base)
			defer pk.leave(w.Base)
			if calls.Add(1) == 1 {
				time.Sleep(30 * time.Millisecond) // room for a second attempt to sneak in
				duringProbe.Store(int64(pk.top(w.Base)))
			} else {
				pk.awaitPeak(w.Base, 2)
			}
			if !commit() {
				return nil
			}
			return cov.mark(r, w.Base)
		},
		func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if got := duringProbe.Load(); got != 1 {
		t.Fatalf("%d concurrent attempts during the half-open probe, want 1", got)
	}
	if got := pk.top(w.Base); got != 2 {
		t.Fatalf("worker peaked at %d concurrent attempts after the probe, want 2", got)
	}
	if w.BreakerState() != "closed" {
		t.Fatalf("breaker %s after a successful probe, want closed", w.BreakerState())
	}
}

// TestRunHedgeAvoidsPrimaryWorker: a hedge is a second opinion, so it
// never goes to the worker already running the primary attempt — even
// though that worker's second token sits idle. With one worker the hung
// range waits out RangeTimeout and retries instead.
func TestRunHedgeAvoidsPrimaryWorker(t *testing.T) {
	o := fastOpts()
	o.HedgeQuorum = 0.5
	o.HedgeMultiple = 1
	o.RangeTimeout = 300 * time.Millisecond
	p := NewPoolWith([]string{"http://a"}, o)
	cov := newCoverage()
	const n = 60
	var hung atomic.Bool
	err := p.Run(context.Background(), Split(n, 6),
		func(ctx context.Context, w *Worker, r Range, commit func() bool) error {
			if r.Lo == 0 && hung.CompareAndSwap(false, true) {
				<-ctx.Done() // the primary hangs until its attempt deadline
				return ctx.Err()
			}
			time.Sleep(time.Millisecond)
			if !commit() {
				return nil
			}
			return cov.mark(r, w.Base)
		},
		func(ctx context.Context, r Range) error { return cov.mark(r, "local") })
	if err != nil {
		t.Fatal(err)
	}
	cov.check(t, n)
	if got := p.C.Hedges.Load(); got != 0 {
		t.Fatalf("%d hedges launched onto the primary's own worker, want 0", got)
	}
	if got := cov.by("http://a"); got != n {
		t.Fatalf("worker acknowledged %d samples, want all %d", got, n)
	}
}
