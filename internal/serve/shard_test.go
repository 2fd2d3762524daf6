package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/insertion"
	"repro/internal/shard"
	"repro/internal/shard/chaos"
	"repro/internal/shard/wire"

	"repro/internal/leakcheck"
)

// startWorkers spins n worker bufinsd instances (full serve handlers on
// loopback HTTP) and returns their base URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(New(Config{}).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// shardedClient builds a coordinator server over the given workers and
// returns its client plus the server (for pool counter assertions).
func shardedClient(t *testing.T, workers []string, shards int) (*Server, *Client) {
	t.Helper()
	s := New(Config{Workers: workers, Shards: shards})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

// insertYield runs the canonical probe pair — one insert, one
// strategy-expanded multi-period yield — against a client and returns the
// comparable parts (elapsed fields stripped).
func insertYield(t *testing.T, cl *Client) (insertion.Plan, InsertStats, string) {
	t.Helper()
	ins, err := cl.Insert(context.Background(), insertReq(130, 5))
	if err != nil {
		t.Fatal(err)
	}
	Ts := []float64{ins.T - 20, ins.T, ins.T + 20, ins.T + 40}
	yld, err := cl.Yield(context.Background(), YieldRequest{
		Circuit:     tinySpec(),
		Options:     tinyOptions(),
		EvalSamples: 400,
		Seed:        5 + 0x1000,
		Queries: []YieldQuery{
			{Plan: ins.Plan, Periods: Ts, Strategies: true, StrategySeed: 9},
			{Plan: ins.Plan},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := json.Marshal(yld.Results)
	if err != nil {
		t.Fatal(err)
	}
	return ins.Plan, ins.Stats, string(results)
}

// TestShardedByteIdenticalAcrossWorkerCounts is the tentpole equivalence
// claim: a coordinator sharding over 1, 2, or 7-range splits (uneven by
// construction: 130 and 400 are not multiples of 7) across 1 or 2 worker
// processes answers /v1/insert and /v1/yield byte-identically to the plain
// in-process server. Every tiling of {1, 2 workers} × {1, 2, 7 shards}
// runs, so a pool with more workers than ranges is covered too.
func TestShardedByteIdenticalAcrossWorkerCounts(t *testing.T) {
	_, plain := newTestServer(t)
	wantPlan, wantStats, wantResults := insertYield(t, plain)
	workers := startWorkers(t, 2)
	for _, tc := range []struct {
		workers []string
		shards  int
	}{
		{workers[:1], 1},
		{workers[:1], 2},
		{workers[:1], 7},
		{workers, 1},
		{workers, 2},
		{workers, 7},
	} {
		s, cl := shardedClient(t, tc.workers, tc.shards)
		gotPlan, gotStats, gotResults := insertYield(t, cl)
		wj, _ := json.Marshal(wantPlan)
		gj, _ := json.Marshal(gotPlan)
		if string(wj) != string(gj) {
			t.Fatalf("%d workers × %d shards: plan diverges:\n got %s\nwant %s", len(tc.workers), tc.shards, gj, wj)
		}
		if gotStats != wantStats {
			t.Fatalf("%d workers × %d shards: stats diverge: got %+v want %+v", len(tc.workers), tc.shards, gotStats, wantStats)
		}
		if gotResults != wantResults {
			t.Fatalf("%d workers × %d shards: yield results diverge", len(tc.workers), tc.shards)
		}
		if s.Pool().C.Dispatched.Load() == 0 {
			t.Fatalf("%d workers × %d shards: no ranges dispatched to workers", len(tc.workers), tc.shards)
		}
		if s.Pool().C.Local.Load() != 0 {
			t.Fatalf("%d workers × %d shards: healthy pool fell back to local execution", len(tc.workers), tc.shards)
		}
	}
}

// TestShardedByteIdenticalAcrossCodecs pins the deprecated Config.Codec
// stub: the shard plane has one framing, so every value a caller may still
// set — empty, "binary", or the retired "json" and "mixed" — is ignored.
// Each coordinator still dispatches binary frames (a JSON request would
// draw a fatal 415 and force local fallback) and merges to the same bytes
// as the plain in-process server.
func TestShardedByteIdenticalAcrossCodecs(t *testing.T) {
	_, plain := newTestServer(t)
	wantPlan, wantStats, wantResults := insertYield(t, plain)
	wj, _ := json.Marshal(wantPlan)
	workers := startWorkers(t, 2)
	for _, codec := range []string{"", CodecBinary, "json", "mixed"} {
		s := New(Config{Workers: workers, Shards: 7, Codec: codec})
		ts := httptest.NewServer(s.Handler())
		gotPlan, gotStats, gotResults := insertYield(t, NewClient(ts.URL))
		ts.Close()
		gj, _ := json.Marshal(gotPlan)
		if string(wj) != string(gj) {
			t.Fatalf("codec %q: plan diverges:\n got %s\nwant %s", codec, gj, wj)
		}
		if gotStats != wantStats {
			t.Fatalf("codec %q: stats diverge: got %+v want %+v", codec, gotStats, wantStats)
		}
		if gotResults != wantResults {
			t.Fatalf("codec %q: yield results diverge", codec)
		}
		if s.Pool().C.Dispatched.Load() == 0 {
			t.Fatalf("codec %q: no ranges dispatched to workers", codec)
		}
		if s.Pool().C.Local.Load() != 0 {
			t.Fatalf("codec %q: coordinator fell back to local execution", codec)
		}
	}
}

// flakyWorker proxies a real worker but dies (connection-level) after
// serving `succeed` shard passes — the mid-run kill of the acceptance
// criterion, observable as transport errors on later dispatches.
func flakyWorker(t *testing.T, target string, succeed int64) string {
	t.Helper()
	var served atomic.Int64
	tu, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/shard/") && served.Add(1) > succeed {
			// Kill the connection without a valid HTTP response.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		proxy := *r.URL
		proxy.Scheme = tu.Scheme
		proxy.Host = tu.Host
		req, err := http.NewRequest(r.Method, proxy.String(), r.Body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestShardedSurvivesWorkerKill: with one worker killed after its first
// shard pass, the coordinator re-dispatches the unacknowledged ranges to
// the survivor and still produces byte-identical output.
func TestShardedSurvivesWorkerKill(t *testing.T) {
	_, plain := newTestServer(t)
	wantPlan, wantStats, wantResults := insertYield(t, plain)
	real := startWorkers(t, 2)
	flaky := flakyWorker(t, real[1], 1)
	s, cl := shardedClient(t, []string{real[0], flaky}, 7)
	gotPlan, gotStats, gotResults := insertYield(t, cl)
	wj, _ := json.Marshal(wantPlan)
	gj, _ := json.Marshal(gotPlan)
	if string(wj) != string(gj) || gotStats != wantStats || gotResults != wantResults {
		t.Fatal("output diverged after mid-run worker kill")
	}
	if got := s.Pool().C.Redispatched.Load(); got == 0 {
		t.Fatal("worker kill did not trigger a re-dispatch")
	}
	alive := 0
	for _, w := range s.Pool().Workers() {
		if !w.Down() {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("alive workers = %d, want 1 (the survivor)", alive)
	}
}

// TestShardedDegradesToInProcess: a coordinator whose every worker is
// unreachable still answers — all ranges drain through the in-process
// fallback — and the output stays byte-identical.
func TestShardedDegradesToInProcess(t *testing.T) {
	_, plain := newTestServer(t)
	wantPlan, _, wantResults := insertYield(t, plain)
	// TEST-NET-1 addresses refuse/blackhole quickly on loopback-only hosts;
	// use an unbound local port instead for a fast connection refusal.
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()
	s, cl := shardedClient(t, []string{deadURL}, 3)
	gotPlan, _, gotResults := insertYield(t, cl)
	wj, _ := json.Marshal(wantPlan)
	gj, _ := json.Marshal(gotPlan)
	if string(wj) != string(gj) || gotResults != wantResults {
		t.Fatal("zero-worker degradation diverged from in-process output")
	}
	if s.Pool().C.Local.Load() == 0 {
		t.Fatal("expected local fallback ranges")
	}
}

// TestShardPassEndpointsValidate: the worker endpoints reject malformed
// ranges and specs with 400s rather than desynchronizing a run, and any
// framing but the binary shard frame with a 415 — every error body JSON.
func TestShardPassEndpointsValidate(t *testing.T) {
	_, cl := newTestServer(t)
	send := func(path, contentType string, body []byte) int {
		t.Helper()
		resp, err := cl.HTTP.Post(cl.Base+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("%s: HTTP %d error body is not a JSON error (%v)", path, resp.StatusCode, err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	// post frames req as the coordinator does: the JSON header with a zero
	// Range, the range itself beside it.
	post := func(path string, req any) int {
		t.Helper()
		var rng shard.Range
		switch r := req.(type) {
		case InsertPassRequest:
			rng, r.Range = r.Range, shard.Range{}
			req = r
		case YieldPassRequest:
			rng, r.Range = r.Range, shard.Range{}
			req = r
		}
		header, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return send(path, wire.ContentType, appendPassRequest(nil, header, rng))
	}
	// A well-formed frame is accepted, so the 400s below are the
	// validators speaking, not a framing error.
	if code := post(insertPassPath, InsertPassRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		T: 1e9, Samples: 4, Pass: insertion.PassSpec{Kind: insertion.PassFloating},
		Range: shard.Range{Lo: 0, Hi: 4},
	}); code != http.StatusOK {
		t.Fatalf("valid insert pass: HTTP %d, want 200", code)
	}
	for _, path := range []string{insertPassPath, yieldPassPath} {
		body, err := json.Marshal(InsertPassRequest{Circuit: tinySpec(), Samples: 4, Range: shard.Range{Lo: 0, Hi: 4}})
		if err != nil {
			t.Fatal(err)
		}
		if code := send(path, "application/json", body); code != http.StatusUnsupportedMediaType {
			t.Fatalf("%s: JSON body: HTTP %d, want 415", path, code)
		}
		// A coordinator that hits the 415 must fail loudly, not retry.
		w := shard.NewPool([]string{cl.Base}).Workers()[0]
		if _, err := w.PostBody(context.Background(), path, "application/json", body); shard.ClassOf(err) != shard.ClassFatal {
			t.Fatalf("%s: JSON body classified %v, want ClassFatal (err: %v)", path, shard.ClassOf(err), err)
		}
	}
	if code := post("/v1/shard/insert-pass", InsertPassRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		T: 1000, Samples: 100, Pass: insertion.PassSpec{Kind: "bogus"},
		Range: shard.Range{Lo: 0, Hi: 10},
	}); code != http.StatusBadRequest {
		t.Fatalf("bogus pass kind: HTTP %d, want 400", code)
	}
	if code := post("/v1/shard/insert-pass", InsertPassRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		T: 1000, Samples: 100, Pass: insertion.PassSpec{Kind: insertion.PassFloating},
		Range: shard.Range{Lo: 50, Hi: 200},
	}); code != http.StatusBadRequest {
		t.Fatalf("out-of-bounds insert range: HTTP %d, want 400", code)
	}
	if code := post("/v1/shard/yield-pass", YieldPassRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		EvalSamples: 100, Queries: []YieldQuery{{}},
		Range: shard.Range{Lo: 0, Hi: 10},
	}); code != http.StatusBadRequest {
		t.Fatalf("malformed plan in yield pass: HTTP %d, want 400", code)
	}
	if code := post("/v1/shard/yield-pass", YieldPassRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		EvalSamples: 100, Range: shard.Range{Lo: 0, Hi: 10},
	}); code != http.StatusBadRequest {
		t.Fatalf("empty query list: HTTP %d, want 400", code)
	}
	if code := post("/v1/shard/insert-pass", InsertPassRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		T: 1000, Samples: 1 << 40, Pass: insertion.PassSpec{Kind: insertion.PassFloating},
		Range: shard.Range{Lo: 0, Hi: 10},
	}); code != http.StatusBadRequest {
		t.Fatalf("insert pass over the samples limit: HTTP %d, want 400", code)
	}
	ins, err := cl.Insert(context.Background(), insertReq(130, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1 << 40, maxEvalSamples} {
		if code := post("/v1/shard/yield-pass", YieldPassRequest{
			Circuit: tinySpec(), Options: tinyOptions(),
			EvalSamples: n, Queries: []YieldQuery{{Plan: ins.Plan, Strategies: true}},
			Range: shard.Range{Lo: 0, Hi: 10},
		}); code != http.StatusBadRequest {
			t.Fatalf("yield pass of %d chips × 4 sweeps: HTTP %d, want 400", n, code)
		}
	}
}

// fastDispatch tunes the dispatch plane for test clockwork: real
// retry/breaker semantics at millisecond scale, and a range deadline small
// enough that dropped requests resolve quickly yet far above a tiny shard
// pass's actual compute time.
func fastDispatch() shard.Options {
	return shard.Options{
		RangeTimeout:    250 * time.Millisecond,
		BaseBackoff:     2 * time.Millisecond,
		MaxBackoff:      20 * time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
	}
}

// chaosSeedFiringEarly picks a seed whose schedule faults on transport
// ordinal 1, so every chaos run is guaranteed at least one injection on the
// chaotic worker's first shard request regardless of goroutine scheduling.
func chaosSeedFiringEarly(rate float64) uint64 {
	for seed := uint64(1); seed < 1000; seed++ {
		if _, ok := chaos.NewSchedule(seed, rate).FaultAt(1); ok {
			return seed
		}
	}
	return 1
}

// metricCounter fetches /metrics from base and returns the value of the
// first sample whose name (with label set) matches the given prefix.
func metricCounter(t *testing.T, base, prefix string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %q not exported", prefix)
	return 0
}

// TestShardedByteIdenticalUnderChaos is the determinism contract of the
// fault-injection harness: for every fault kind, worker count, and a fixed
// seed, a coordinator whose first worker runs behind a chaotic transport
// still answers byte-identically to the in-process server — faults are
// retried, re-dispatched, or drained locally, never silently merged.
func TestShardedByteIdenticalUnderChaos(t *testing.T) {
	_, plain := newTestServer(t)
	wantPlan, wantStats, wantResults := insertYield(t, plain)
	wj, _ := json.Marshal(wantPlan)
	workers := startWorkers(t, 2)
	const rate = 0.35
	seed := chaosSeedFiringEarly(rate)
	cases := []struct {
		name    string
		workers int
		faults  []chaos.Kind
	}{
		{"drop/1w", 1, []chaos.Kind{chaos.Drop}},
		{"drop/2w", 2, []chaos.Kind{chaos.Drop}},
		{"delay/1w", 1, []chaos.Kind{chaos.Delay}},
		{"delay/2w", 2, []chaos.Kind{chaos.Delay}},
		{"reset/1w", 1, []chaos.Kind{chaos.Reset}},
		{"reset/2w", 2, []chaos.Kind{chaos.Reset}},
		{"truncate/1w", 1, []chaos.Kind{chaos.Truncate}},
		{"truncate/2w", 2, []chaos.Kind{chaos.Truncate}},
		{"corrupt/1w", 1, []chaos.Kind{chaos.Corrupt}},
		{"corrupt/2w", 2, []chaos.Kind{chaos.Corrupt}},
		{"all-kinds/2w", 2, nil}, // nil = the full sweep, incl. 500 and 429
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{
				Workers:     workers[:tc.workers],
				Shards:      7, // uneven by construction: 130 and 400 are not multiples of 7
				Dispatch:    fastDispatch(),
				ChaosWorker: workers[0],
				ChaosSeed:   seed,
				ChaosRate:   rate,
				ChaosFaults: tc.faults,
			})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			gotPlan, gotStats, gotResults := insertYield(t, NewClient(ts.URL))
			gj, _ := json.Marshal(gotPlan)
			if string(wj) != string(gj) {
				t.Fatalf("plan diverges under chaos:\n got %s\nwant %s", gj, wj)
			}
			if gotStats != wantStats {
				t.Fatalf("stats diverge under chaos: got %+v want %+v", gotStats, wantStats)
			}
			if gotResults != wantResults {
				t.Fatal("yield results diverge under chaos")
			}
			if s.chaos == nil || s.chaos.Total() == 0 {
				t.Fatal("chaos transport injected nothing — the sweep proved nothing")
			}
			// Undecodable 2xx bodies must surface as the dedicated corrupt
			// class, visible on /metrics — never as a merged partial.
			if len(tc.faults) == 1 && (tc.faults[0] == chaos.Truncate || tc.faults[0] == chaos.Corrupt) {
				if got := s.Pool().C.Corrupt.Load(); got == 0 {
					t.Fatal("mangled responses did not tick the corrupt counter")
				}
				if v := metricCounter(t, ts.URL, "bufinsd_shard_corrupt_total"); v == 0 {
					t.Fatal("/metrics bufinsd_shard_corrupt_total stayed 0 under body mangling")
				}
				kind := string(tc.faults[0])
				if v := metricCounter(t, ts.URL, `bufinsd_chaos_injected_total{kind="`+kind+`"}`); v == 0 {
					t.Fatalf("/metrics bufinsd_chaos_injected_total{kind=%q} stayed 0", kind)
				}
			}
		})
	}
}

// TestShardedInsertCancelsPromptlyAndIsNotCached: a client hanging up
// mid-insert must (1) unwind the coordinator within the probe window — not
// a transport timeout — (2) release the worker-side pass, and (3) leave no
// poisoned singleflight entry: the same query, re-asked once the worker
// behaves, computes fresh and matches the in-process answer.
func TestShardedInsertCancelsPromptlyAndIsNotCached(t *testing.T) {
	// The bound is lenient (httptest keeps service goroutines): it catches
	// wholesale leaks of per-range drivers, not singletons.
	check := leakcheck.Guard(t, leakcheck.Slack(6))
	inner := New(Config{}).Handler()
	var hang atomic.Bool
	hang.Store(true)
	var started sync.Once
	startedc := make(chan struct{})
	released := make(chan struct{}, 8)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hang.Load() && strings.HasPrefix(r.URL.Path, "/v1/shard/") {
			// Drain the body first, like a real worker decoding the pass
			// request — the server only watches for client disconnect
			// (and thus cancels r.Context()) once the body is consumed.
			io.Copy(io.Discard, r.Body)
			started.Do(func() { close(startedc) })
			// Alive but infinitely slow: hold the pass until the
			// coordinator abandons the request.
			<-r.Context().Done()
			released <- struct{}{}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	s := New(Config{Workers: []string{worker.URL}, Shards: 3})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body, err := json.Marshal(insertReq(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-startedc // only cancel once a pass is provably inflight on the worker
		cancel()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/insert", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	hc := &http.Client{}
	start := time.Now()
	resp, err := hc.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("cancelled insert must fail, got a response")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled insert unwound after %v, want well under the transport timeout", elapsed)
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("worker-side pass was not released by the cancellation")
	}

	// Same query against a now-healthy worker: the poisoned entry must have
	// been evicted, so this computes fresh and matches in-process.
	hang.Store(false)
	_, plainCl := newTestServer(t)
	want, err := plainCl.Insert(context.Background(), insertReq(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ts.URL)
	got, err := cl.Insert(context.Background(), insertReq(60, 11))
	if err != nil {
		t.Fatalf("insert after cancellation: %v (was the cancelled error cached?)", err)
	}
	if got.Cached {
		t.Fatal("insert after cancellation answered from cache — the poisoned entry was not evicted")
	}
	wj, _ := json.Marshal(want.Plan)
	gj, _ := json.Marshal(got.Plan)
	if string(wj) != string(gj) || got.Stats != want.Stats {
		t.Fatal("post-cancellation recompute diverged from the in-process answer")
	}

	// Goroutine accounting: once idle connections close, the coordinator
	// must shed everything it spawned for the cancelled run.
	hc.CloseIdleConnections()
	cl.HTTP.CloseIdleConnections()
	plainCl.HTTP.CloseIdleConnections()
	check()
}

// TestShardedRejectsOutOfRangeTunedFF: a well-framed insert-pass partial
// whose outcome tunes an FF outside the circuit is corrupt — retried and
// never merged, so it can neither crash the flow's reduction nor poison
// the plan cache. The proxy worker re-frames every insert-pass 200 with one
// such outcome; the coordinator must still answer the plain server's plan,
// and answer the identical request again.
func TestShardedRejectsOutOfRangeTunedFF(t *testing.T) {
	inner := New(Config{}).Handler()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if r.URL.Path != insertPassPath || rec.Code != http.StatusOK {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		resp, err := decodeInsertPassResponse(rec.Body.Bytes())
		if err != nil || len(resp.Outcomes) == 0 {
			t.Errorf("proxy: decoding insert-pass frame: %v", err)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		resp.Outcomes[0].Feasible = true
		resp.Outcomes[0].Tuned = append(resp.Outcomes[0].Tuned, insertion.Tuning{FF: 1 << 20})
		writeFrame(w, resp)
	}))
	t.Cleanup(worker.Close)

	_, plain := newTestServer(t)
	want, err := plain.Insert(context.Background(), insertReq(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: []string{worker.URL}, Shards: 3, Dispatch: fastDispatch()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)
	wj, _ := json.Marshal(want.Plan)
	for i := 0; i < 2; i++ {
		got, err := cl.Insert(context.Background(), insertReq(60, 11))
		if err != nil {
			t.Fatalf("insert %d over a corrupting worker: %v", i, err)
		}
		if gj, _ := json.Marshal(got.Plan); string(gj) != string(wj) || got.Stats != want.Stats {
			t.Fatalf("insert %d: plan diverges from the plain server:\n got %s\nwant %s", i, gj, wj)
		}
	}
	if s.Pool().C.Corrupt.Load() < 1 {
		t.Fatal("no corrupt partial was rejected")
	}
}
