package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/yield"
)

// adaptiveYieldReq is the probe every adaptive serve test runs: a
// three-period sweep spanning the yield curve, eps wide enough to stop
// before the cap but narrow enough to need several waves.
func adaptiveYieldReq(t *testing.T, cl *Client) YieldRequest {
	t.Helper()
	ins, err := cl.Insert(context.Background(), insertReq(130, 5))
	if err != nil {
		t.Fatal(err)
	}
	return YieldRequest{
		Circuit:     tinySpec(),
		Options:     tinyOptions(),
		EvalSamples: 4000,
		Seed:        5 + 0x1000,
		Eps:         0.03,
		Conf:        0.9,
		Queries: []YieldQuery{
			{Plan: ins.Plan, Periods: []float64{ins.T - 20, ins.T, ins.T + 20}},
			{Plan: ins.Plan},
		},
	}
}

// TestAdaptiveYieldShardedMatchesInProcess: the adaptive wave loop must
// produce the identical wave schedule, sample count, and estimates whether
// it runs in-process or dispatched wave-by-wave over a worker pool — the
// adaptive analogue of the sharded byte-identity claim.
func TestAdaptiveYieldShardedMatchesInProcess(t *testing.T) {
	plainS, plain := newTestServer(t)
	req := adaptiveYieldReq(t, plain)
	want, err := plain.Yield(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for qi, res := range want.Results {
		if len(res.Adaptive) != len(res.Names) || len(res.Reports) != 0 {
			t.Fatalf("query %d: adaptive result carries %d adaptive/%d exact reports for %d names",
				qi, len(res.Adaptive), len(res.Reports), len(res.Names))
		}
	}
	rep := want.Results[0].Adaptive[0]
	if rep.Waves < 2 {
		t.Fatalf("probe point too easy for the test: %d waves", rep.Waves)
	}
	if rep.SamplesUsed > req.EvalSamples {
		t.Fatalf("adaptive used %d samples over cap %d", rep.SamplesUsed, req.EvalSamples)
	}
	if got := plainS.m.adWaves.Load(); got != int64(rep.Waves) {
		t.Fatalf("adaptive wave counter %d, report says %d", got, rep.Waves)
	}
	wantJSON, err := json.Marshal(want.Results)
	if err != nil {
		t.Fatal(err)
	}

	workers := startWorkers(t, 2)
	s, cl := shardedClient(t, workers, 3)
	got, err := cl.Yield(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Results)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("sharded adaptive results diverge:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// Each wave is its own dispatch pass, so the pool must have dispatched
	// at least one range per wave and never fallen back to local execution.
	if disp := s.Pool().C.Dispatched.Load(); disp < int64(rep.Waves) {
		t.Fatalf("pool dispatched %d ranges for %d waves", disp, rep.Waves)
	}
	if s.Pool().C.Local.Load() != 0 {
		t.Fatal("healthy pool fell back to local execution")
	}
	if used := s.m.adSamplesUsed.Load(); used != int64(rep.SamplesUsed) {
		t.Fatalf("coordinator samples_used counter %d, want %d", used, rep.SamplesUsed)
	}
	if reqd := s.m.adSamplesReq.Load(); reqd != int64(req.EvalSamples) {
		t.Fatalf("coordinator samples_requested counter %d, want %d", reqd, req.EvalSamples)
	}
}

// TestShardedRejectsPooledStratifiedTally: on a stratified wave a worker
// partial carries one histogram per stratum. A partial folded back to the
// pooled length — as a worker from before the per-stratum layout would
// send — sums to the right chip count but cannot be credited per stratum,
// so the coordinator must reject it as corrupt, never merge it, and still
// answer what the plain server answers.
func TestShardedRejectsPooledStratifiedTally(t *testing.T) {
	inner := New(Config{}).Handler()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if r.URL.Path != yieldPassPath || rec.Code != http.StatusOK {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		resp, err := decodeYieldPassResponse(rec.Body.Bytes())
		if err != nil {
			t.Errorf("proxy: decoding yield-pass frame: %v", err)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		for i, tl := range resp.Tallies {
			resp.Tallies[i] = yield.SweepTally{FirstZero: pooledHist(tl.FirstZero), FirstTuned: pooledHist(tl.FirstTuned)}
		}
		writeFrame(w, resp)
	}))
	t.Cleanup(worker.Close)

	_, plain := newTestServer(t)
	req := adaptiveYieldReq(t, plain)
	want, err := plain.Yield(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Results)
	s := New(Config{Workers: []string{worker.URL}, Shards: 3, Dispatch: fastDispatch()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	got, err := NewClient(ts.URL).Yield(context.Background(), req)
	if err != nil {
		t.Fatalf("adaptive yield over a pooling worker: %v", err)
	}
	if gotJSON, _ := json.Marshal(got.Results); string(gotJSON) != string(wantJSON) {
		t.Fatalf("results diverge from the plain server:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if s.Pool().C.Corrupt.Load() < 1 {
		t.Fatal("no pooled partial was rejected")
	}
}

// pooledHist folds a per-stratum histogram of the default strata into the
// pooled one (nil stays nil).
func pooledHist(hist []int) []int {
	if hist == nil {
		return nil
	}
	bins := len(hist) / yield.DefaultStrata
	out := make([]int, bins)
	for i, c := range hist {
		out[i%bins] += c
	}
	return out
}

// TestAdaptiveYieldEarlyStopAndMetrics: an easy single-period query must
// stop well before the cap, report Met, and show up in /metrics as an
// early stop with samples_used < samples_requested.
func TestAdaptiveYieldEarlyStopAndMetrics(t *testing.T) {
	s, cl := newTestServer(t)
	ins, err := cl.Insert(context.Background(), insertReq(130, 5))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: tinySpec(), Options: tinyOptions()})
	if err != nil {
		t.Fatal(err)
	}
	easy := prep.Mu + 3.5*prep.Sigma // both curves ≈ 1 here
	resp, err := cl.Yield(context.Background(), YieldRequest{
		Circuit:     tinySpec(),
		Options:     tinyOptions(),
		EvalSamples: 40000,
		Seed:        5 + 0x1000,
		Eps:         0.02,
		Conf:        0.95,
		Queries:     []YieldQuery{{Plan: ins.Plan, Periods: []float64{easy}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.Results[0].Adaptive[0]
	if !rep.Met {
		t.Fatalf("easy point did not meet precision: %+v", rep)
	}
	if rep.SamplesUsed >= 40000/10 {
		t.Fatalf("easy point used %d samples of nominal 40000", rep.SamplesUsed)
	}
	for i := range rep.Ts {
		if rep.Tuned[i].HalfWidth > 0.02 || rep.Original[i].HalfWidth > 0.02 {
			t.Fatalf("met report wider than eps at point %d: %+v", i, rep)
		}
		if rep.Tuned[i].Estimate < rep.Original[i].Estimate-rep.Tuned[i].HalfWidth-rep.Original[i].HalfWidth {
			t.Fatalf("tuned estimate implausibly below original at point %d", i)
		}
	}
	if s.m.adEarlyStop.Load() != 1 || s.m.adCap.Load() != 0 {
		t.Fatalf("early-stop counters: early=%d cap=%d", s.m.adEarlyStop.Load(), s.m.adCap.Load())
	}
	if s.m.adSamplesUsed.Load() >= s.m.adSamplesReq.Load() {
		t.Fatalf("metrics: used %d not below requested %d", s.m.adSamplesUsed.Load(), s.m.adSamplesReq.Load())
	}
}

// TestAdaptiveYieldValidation: malformed eps/conf are client errors, and a
// plain (eps-unset) request must keep answering with exact Reports and no
// Adaptive payload.
func TestAdaptiveYieldValidation(t *testing.T) {
	_, cl := newTestServer(t)
	ins, err := cl.Insert(context.Background(), insertReq(130, 5))
	if err != nil {
		t.Fatal(err)
	}
	base := YieldRequest{
		Circuit:     tinySpec(),
		Options:     tinyOptions(),
		EvalSamples: 400,
		Seed:        5 + 0x1000,
		Queries:     []YieldQuery{{Plan: ins.Plan}},
	}
	for _, bad := range []struct{ eps, conf float64 }{
		{0.6, 0},
		{0.01, 0.3},
		{0.01, 1.5},
	} {
		req := base
		req.Eps, req.Conf = bad.eps, bad.conf
		if _, err := cl.Yield(context.Background(), req); err == nil {
			t.Errorf("eps=%v conf=%v accepted, want 400", bad.eps, bad.conf)
		}
	}
	resp, err := cl.Yield(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results[0].Reports) == 0 || len(resp.Results[0].Adaptive) != 0 {
		t.Fatalf("eps-unset request answered adaptively: %+v", resp.Results[0])
	}
}

// TestAdaptiveYieldCancelsInProcess: a client hanging up on an adaptive
// /v1/yield served without workers must stop the wave loop promptly. The
// tight eps and large cap would otherwise keep the handler realizing
// chips for many seconds after nobody is listening.
func TestAdaptiveYieldCancelsInProcess(t *testing.T) {
	check := leakcheck.Guard(t, leakcheck.Slack(6))
	inner := New(Config{}).Handler()
	entered := make(chan struct{})
	returned := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/yield" {
			inner.ServeHTTP(w, r)
			return
		}
		close(entered)
		defer close(returned)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)
	ins, err := cl.Insert(context.Background(), insertReq(130, 5)) // warms the bench
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(YieldRequest{
		Circuit:     tinySpec(),
		Options:     tinyOptions(),
		EvalSamples: 10_000_000,
		Seed:        5 + 0x1000,
		Eps:         0.0005,
		Queries:     []YieldQuery{{Plan: ins.Plan}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-entered
		time.Sleep(50 * time.Millisecond) // past the first waves
		cancel()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/yield", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	hc := &http.Client{}
	if resp, err := hc.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled adaptive yield must fail, got a response")
	}
	select {
	case <-returned:
	case <-time.After(3 * time.Second):
		t.Fatal("adaptive /v1/yield handler still running 3s after the client hung up")
	}
	hc.CloseIdleConnections()
	cl.HTTP.CloseIdleConnections()
	check()
}
