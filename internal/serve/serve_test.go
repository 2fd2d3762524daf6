package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/yield"
)

// tinySpec is the generated circuit every test serves: small enough that a
// cold prepare is fast, big enough to need buffers at tight targets.
func tinySpec() CircuitSpec {
	return CircuitSpec{Gen: &gen.Config{NumFFs: 20, NumGates: 90, Seed: 7}}
}

func tinyOptions() expt.Options {
	return expt.Options{PeriodSamples: 500}
}

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

func insertReq(samples int, seed uint64) InsertRequest {
	k := 0.0
	return InsertRequest{
		Circuit: tinySpec(),
		Options: tinyOptions(),
		TargetK: &k,
		Samples: samples,
		Seed:    seed,
	}
}

// inProcessBench prepares the same bench the server builds for tinySpec.
func inProcessBench(t *testing.T) *expt.Bench {
	t.Helper()
	c, err := tinySpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := expt.Prepare(c, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInsertMatchesInProcess: the service path must produce byte-identical
// plans to the batch path — same circuit, options, target arithmetic,
// samples, and seed mean the same deterministic flow.
func TestInsertMatchesInProcess(t *testing.T) {
	_, cl := newTestServer(t)
	got, err := cl.Insert(context.Background(), insertReq(150, 3))
	if err != nil {
		t.Fatal(err)
	}
	b := inProcessBench(t)
	res, err := insertion.Run(b.Graph, b.Placement, insertion.Config{
		T: b.PeriodFor(expt.MuT), Samples: 150, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Plan(b.Name)
	gotJSON, _ := json.Marshal(got.Plan)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("server plan != in-process plan:\n%s\n%s", gotJSON, wantJSON)
	}
	if got.Nb != res.NumPhysicalBuffers() || got.Ab != res.AvgRangeSteps() {
		t.Fatalf("summary numbers diverge: %+v", got)
	}
	if got.Stats.Samples != 150 {
		t.Fatalf("stats: %+v", got.Stats)
	}
}

// TestInsertPlanCache: an identical repeated query is answered from the
// plan cache, marked Cached, and byte-identical to the first answer.
func TestInsertPlanCache(t *testing.T) {
	s, cl := newTestServer(t)
	first, err := cl.Insert(context.Background(), insertReq(120, 5))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query cannot be a cache hit")
	}
	second, err := cl.Insert(context.Background(), insertReq(120, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat query must hit the plan cache")
	}
	a, _ := json.Marshal(first.Plan)
	b, _ := json.Marshal(second.Plan)
	if !bytes.Equal(a, b) {
		t.Fatal("cached plan differs from computed plan")
	}
	if s.m.planHit.Load() != 1 || s.m.benchMiss.Load() != 1 {
		t.Fatalf("cache counters: planHit=%d benchMiss=%d", s.m.planHit.Load(), s.m.benchMiss.Load())
	}
	// A different budget is a different query.
	req := insertReq(120, 5)
	req.MaxBuffers = 1
	third, err := cl.Insert(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different budget must not hit the cache")
	}
}

// TestPlanRoundTripThroughService: Save → HTTP body → LoadPlan → Validate.
// The serialized plan that crosses the service boundary reloads into an
// equal, valid plan.
func TestPlanRoundTripThroughService(t *testing.T) {
	_, cl := newTestServer(t)
	resp, err := cl.Insert(context.Background(), insertReq(150, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := resp.Plan.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := insertion.LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*loaded, resp.Plan) {
		t.Fatalf("round-tripped plan differs:\n%+v\n%+v", *loaded, resp.Plan)
	}
	// And the loaded plan is accepted back by the service.
	yr, err := cl.Yield(context.Background(), YieldRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		EvalSamples: 400, Seed: 99,
		Queries: []YieldQuery{{Plan: *loaded}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(yr.Results) != 1 || len(yr.Results[0].Reports) != 1 {
		t.Fatalf("results: %+v", yr.Results)
	}
}

// TestYieldMalformedPlan400: a structurally invalid plan is rejected with
// HTTP 400 and a JSON error body, not a 500 or a bogus report.
func TestYieldMalformedPlan400(t *testing.T) {
	_, cl := newTestServer(t)
	bad := insertion.Plan{
		Circuit: "x", T: 100,
		Spec:   insertion.BufferSpec{MaxRange: 12.5, Steps: 20},
		Groups: []insertion.Group{{FFs: []int{0}, Lo: 3, Hi: 9}}, // window misses 0
	}
	_, err := cl.Yield(context.Background(), YieldRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		EvalSamples: 100, Seed: 1,
		Queries: []YieldQuery{{Plan: bad}},
	})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("want HTTP 400, got %v", err)
	}
	// Truly malformed JSON bodies are 400 too.
	resp, err := cl.HTTP.Post(cl.Base+"/v1/yield", "application/json",
		strings.NewReader(`{"queries": [{`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d", resp.StatusCode)
	}
	var e ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
		t.Fatal("error body must be JSON with a message")
	}
}

// TestEmptyGroupsPlanValidatesAndYields: a plan with no groups is legal —
// it means "no buffers inserted" — Validate accepts it and the service
// reports tuned yield equal to original yield.
func TestEmptyGroupsPlanValidatesAndYields(t *testing.T) {
	_, cl := newTestServer(t)
	empty := insertion.Plan{
		Circuit: "tiny", T: 1000,
		Spec: insertion.BufferSpec{MaxRange: 125, Steps: 20},
	}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty-groups plan must validate: %v", err)
	}
	yr, err := cl.Yield(context.Background(), YieldRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		EvalSamples: 300, Seed: 11,
		Queries: []YieldQuery{{Plan: empty}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := yr.Results[0].Reports[0]
	if rep.Tuned[0] != rep.Original[0] {
		t.Fatalf("no buffers must mean no improvement: %+v", rep)
	}
}

// TestYieldMatchesInProcess: the service's batched strategy evaluation is
// byte-identical to yield.EvaluateMany run locally on the same universe.
func TestYieldMatchesInProcess(t *testing.T) {
	_, cl := newTestServer(t)
	ins, err := cl.Insert(context.Background(), insertReq(150, 3))
	if err != nil {
		t.Fatal(err)
	}
	const evalN, evalSeed = 600, 4099
	Ts := []float64{ins.T * 0.98, ins.T, ins.T * 1.02}
	yr, err := cl.Yield(context.Background(), YieldRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		EvalSamples: evalN, Seed: evalSeed,
		Queries: []YieldQuery{{Plan: ins.Plan, Periods: Ts, Strategies: true, StrategySeed: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := inProcessBench(t)
	ev, err := yield.NewEvaluator(b.Graph, ins.Plan.Spec, ins.Plan.Groups)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := yield.NewSweepEvaluator(ev, Ts)
	if err != nil {
		t.Fatal(err)
	}
	want := yield.EvaluateMany(mc.New(b.Graph, evalSeed), evalN, sw)[0]
	got := yr.Results[0]
	if got.Names[0] != "sampling" || len(got.Names) != 4 {
		t.Fatalf("strategy names: %v", got.Names)
	}
	gj, _ := json.Marshal(got.Reports[0])
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("sampling sweep diverges:\n%s\n%s", gj, wj)
	}
}

// TestConcurrentMixedRequests: overlapping prepare/insert/yield on one
// server — shared bench, shared runner, shared populations — stays
// correct (checked against the sequential answers) and race-free.
func TestConcurrentMixedRequests(t *testing.T) {
	s := New(Config{MaxInflight: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)
	ref, err := cl.Insert(context.Background(), insertReq(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref.Plan)
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				r, err := cl.Insert(context.Background(), insertReq(100, 2))
				if err == nil {
					if j, _ := json.Marshal(r.Plan); !bytes.Equal(j, refJSON) {
						err = fmt.Errorf("concurrent insert diverged")
					}
				}
				errs[i] = err
			case 1:
				r, err := cl.Insert(context.Background(), insertReq(100, uint64(40+i)))
				if err == nil && r.Plan.T != ref.Plan.T {
					err = fmt.Errorf("target drifted")
				}
				errs[i] = err
			default:
				_, err := cl.Yield(context.Background(), YieldRequest{
					Circuit: tinySpec(), Options: tinyOptions(),
					EvalSamples: 200, Seed: 77,
					Queries: []YieldQuery{{Plan: ref.Plan}},
				})
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestRequestValidation: the documented 400 family.
func TestRequestValidation(t *testing.T) {
	_, cl := newTestServer(t)
	for name, req := range map[string]InsertRequest{
		"no-circuit":  {Samples: 10, TargetK: new(float64)},
		"no-target":   {Circuit: tinySpec(), Samples: 10},
		"no-samples":  {Circuit: tinySpec(), TargetK: new(float64)},
		"two-targets": {Circuit: tinySpec(), Samples: 10, TargetK: new(float64), Period: new(float64)},
		"bad-preset":  {Circuit: CircuitSpec{Preset: "nope"}, Samples: 10, TargetK: new(float64)},
		"two-specs":   {Circuit: CircuitSpec{Preset: "s9234", Bench: "x"}, Samples: 10, TargetK: new(float64)},
	} {
		if _, err := cl.Insert(context.Background(), req); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
			t.Fatalf("%s: want HTTP 400, got %v", name, err)
		}
	}
}

// TestOversizedRequests400: sample counts over the package limits are
// rejected with 400 naming the limit, before any per-chip allocation, and
// the server keeps serving afterwards. Unbounded, eval_samples 1<<40 makes
// the sweep tally allocate two int32 per chip and the runtime's
// out-of-memory error kills the process.
func TestOversizedRequests400(t *testing.T) {
	_, cl := newTestServer(t)
	ins, err := cl.Insert(context.Background(), insertReq(130, 5))
	if err != nil {
		t.Fatal(err)
	}
	plan := []YieldQuery{{Plan: ins.Plan}}
	strategies := []YieldQuery{{Plan: ins.Plan, Strategies: true}}
	for _, tc := range []struct {
		name    string
		n       int
		queries []YieldQuery
		limit   int
	}{
		{"eval_samples", 1 << 40, plan, maxEvalSamples},
		{"eval_samples×sweeps", maxEvalSamples, append(slices.Clone(strategies), plan...), maxSweepSamples},
	} {
		_, err := cl.Yield(context.Background(), YieldRequest{Circuit: tinySpec(), Options: tinyOptions(), EvalSamples: tc.n, Seed: 1, Queries: tc.queries})
		if err == nil || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), fmt.Sprint(tc.limit)) {
			t.Fatalf("%s: want HTTP 400 naming the limit %d, got %v", tc.name, tc.limit, err)
		}
	}
	big := insertReq(maxInsertSamples+1, 5)
	if _, err := cl.Insert(context.Background(), big); err == nil || !strings.Contains(err.Error(), "HTTP 400") ||
		!strings.Contains(err.Error(), fmt.Sprint(maxInsertSamples)) {
		t.Fatalf("insert samples: want HTTP 400 naming the limit %d, got %v", maxInsertSamples, err)
	}
	// Still serving: a normal yield request answers.
	resp, err := cl.Yield(context.Background(), YieldRequest{Circuit: tinySpec(), Options: tinyOptions(), EvalSamples: 200, Seed: 1, Queries: strategies})
	if err != nil {
		t.Fatalf("server stopped serving after the rejected requests: %v", err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Reports) != 4 {
		t.Fatalf("follow-up yield answered %+v, want one result of 4 strategy reports", resp.Results)
	}
	if err := cl.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedPrepare400: prepare size fields over the package limits are
// rejected with 400 before anything is built, so no bench entry is cached
// for them. A circuit of 2⁶² FFs used to panic inside the entry's
// sync.Once, leaving a cached entry with neither a bench nor an error that
// every later request on the key nil-dereferenced.
func TestOversizedPrepare400(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const body = `{"circuit":{"gen":{"NumFFs":4611686018427387904,"NumGates":10}}}`
	var first string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/prepare", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), fmt.Sprint(maxGenFFs)) {
			t.Fatalf("attempt %d: HTTP %d %s, want 400 naming the limit %d", i, resp.StatusCode, msg, maxGenFFs)
		}
		if i == 0 {
			first = string(msg)
		} else if string(msg) != first {
			t.Fatalf("second rejection %q differs from the first %q", msg, first)
		}
	}
	cl := NewClient(ts.URL)
	gc := func(edit func(*gen.Config)) CircuitSpec {
		c := *tinySpec().Gen
		edit(&c)
		return CircuitSpec{Gen: &c}
	}
	for _, tc := range []struct {
		name  string
		spec  CircuitSpec
		opt   expt.Options
		limit int
	}{
		{"NumFFs", gc(func(c *gen.Config) { c.NumFFs = 1 << 27 }), tinyOptions(), maxGenFFs},
		{"NumGates", gc(func(c *gen.Config) { c.NumGates = maxGenGates + 1 }), tinyOptions(), maxGenGates},
		{"NumPIs", gc(func(c *gen.Config) { c.NumPIs = -1 }), tinyOptions(), maxGenFFs},
		{"NumPOs", gc(func(c *gen.Config) { c.NumPOs = maxGenFFs + 1 }), tinyOptions(), maxGenFFs},
		{"MaxSources", gc(func(c *gen.Config) { c.MaxSources = maxGenSources + 1 }), tinyOptions(), maxGenSources},
		{"LocalityWindow", gc(func(c *gen.Config) { c.LocalityWindow = 1 << 62 }), tinyOptions(), maxGenFFs},
		{"PeriodSamples", tinySpec(), expt.Options{PeriodSamples: maxPeriodSamples + 1}, maxPeriodSamples},
		{"negative PeriodSamples", tinySpec(), expt.Options{PeriodSamples: -1}, maxPeriodSamples},
		{"Regions", CircuitSpec{Preset: "s9234"}, expt.Options{Regions: maxRegions + 1}, maxRegions},
	} {
		_, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: tc.spec, Options: tc.opt})
		if err == nil || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), fmt.Sprint(tc.limit)) {
			t.Fatalf("%s: want HTTP 400 naming the limit %d, got %v", tc.name, tc.limit, err)
		}
	}
	if n := s.benches.len(); n != 0 {
		t.Fatalf("rejected prepares cached %d bench entries", n)
	}
	if _, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: tinySpec(), Options: tinyOptions()}); err != nil {
		t.Fatalf("valid prepare after the rejections: %v", err)
	}
	if err := cl.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestInflightLimit: when the admission semaphore is full, requests are
// rejected with 429 instead of queueing without bound.
func TestInflightLimit(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	s.inflight <- struct{}{} // occupy the only slot
	_, err := cl.Insert(context.Background(), insertReq(10, 1))
	if err == nil || !strings.Contains(err.Error(), "HTTP 429") {
		t.Fatalf("want HTTP 429, got %v", err)
	}
	<-s.inflight
	if s.m.rejected.Load() != 1 {
		t.Fatal("rejection not counted")
	}
}

// TestHealthzAndMetrics: liveness and the counter surface.
func TestHealthzAndMetrics(t *testing.T) {
	s, cl := newTestServer(t)
	if err := cl.Health(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Insert(context.Background(), insertReq(80, 1)); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HTTP.Get(cl.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`bufinsd_requests_total{endpoint="insert"} 1`,
		`bufinsd_cache_misses_total{cache="bench"} 1`,
		"bufinsd_benches 1",
		"# TYPE bufinsd_panics_total counter\n" +
			`bufinsd_panics_total{cache="bench"} 0` + "\n" +
			`bufinsd_panics_total{cache="plan"} 0` + "\n",
		"bufinsd_whatif_total 0\n# TYPE bufinsd_whatif_chips_total counter\n" +
			`bufinsd_whatif_chips_total{path="record"} 0` + "\n" +
			`bufinsd_whatif_chips_total{path="full"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	_ = s
}

// checkPanics asserts the bench and plan panic counters on /metrics.
func checkPanics(t *testing.T, base string, bench, plan int64) {
	t.Helper()
	b := metricCounter(t, base, `bufinsd_panics_total{cache="bench"}`)
	p := metricCounter(t, base, `bufinsd_panics_total{cache="plan"}`)
	if b != bench || p != plan {
		t.Fatalf("panic counters bench=%d plan=%d, want %d and %d", b, p, bench, plan)
	}
}

// TestBenchEviction: the bench LRU stays within its cap.
func TestBenchEviction(t *testing.T) {
	s := New(Config{MaxBenches: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	for seed := uint64(1); seed <= 3; seed++ {
		spec := CircuitSpec{Gen: &gen.Config{NumFFs: 12, NumGates: 40, Seed: seed}}
		if _, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: spec, Options: expt.Options{PeriodSamples: 200}}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	n := s.benches.len()
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("bench cache size %d, want 1", n)
	}
}

// TestPrepareWhatIf: a prepare request with edits answers from a fork of
// the cached bench — the response must flag what-if mode, match an
// in-process WhatIf bit-for-bit, and never add an entry to the bench LRU.
func TestPrepareWhatIf(t *testing.T) {
	s, cl := newTestServer(t)
	base, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: tinySpec(), Options: tinyOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if base.WhatIf {
		t.Fatal("plain prepare must not be flagged what-if")
	}
	b := inProcessBench(t)
	// Perturb the critical pair's capture-side driver so µT must move.
	crit, need := 0, 0.0
	for i, p := range b.Graph.Pairs {
		if n := p.Max.Mean + b.Graph.Skew[p.Launch] - b.Graph.Skew[p.Capture]; n > need {
			need, crit = n, i
		}
	}
	capNode := b.Circuit.FFs()[b.Graph.Pairs[crit].Capture]
	editNode := b.Circuit.Nodes[capNode].Fanin[0]
	if !b.Circuit.Nodes[editNode].Kind.IsGate() {
		editNode = b.Circuit.FFs()[b.Graph.Pairs[crit].Launch]
	}
	edits := []expt.Edit{{Node: b.Circuit.Nodes[editNode].Name, DeltaPS: 55}}

	got, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: tinySpec(), Options: tinyOptions(), WhatIf: edits})
	if err != nil {
		t.Fatal(err)
	}
	if !got.WhatIf || !got.Cached {
		t.Fatalf("what-if on a warm bench should report WhatIf+Cached, got %+v", got)
	}
	want, err := b.WhatIf(edits)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mu != want.Period.Mu || got.Sigma != want.Period.Sigma || got.HoldViolRate != want.Period.HoldViolRate {
		t.Fatalf("service what-if %+v != in-process %+v", got, want.Period)
	}
	if got.Mu <= base.Mu {
		t.Fatalf("edit on the critical cone should raise µT: %v vs base %v", got.Mu, base.Mu)
	}
	checkWhatIfChips(t, cl.Base, want.Chips, want.Period.Samples)
	// The probe must not have created a second bench entry, and the base
	// answer must be unchanged by the probe.
	s.mu.Lock()
	benches := s.benches.len()
	s.mu.Unlock()
	if benches != 1 {
		t.Fatalf("what-if polluted the bench LRU: %d entries", benches)
	}
	again, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: tinySpec(), Options: tinyOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if again.Mu != base.Mu || again.Sigma != base.Sigma || again.WhatIf {
		t.Fatal("base bench answer changed after a what-if probe")
	}
}

// checkWhatIfChips asserts the what-if chip counters on /metrics: the
// chips split between the period record and full realizations as want
// does, and add up to the period sample count.
func checkWhatIfChips(t *testing.T, base string, want mc.Revision, samples int) {
	t.Helper()
	rec := metricCounter(t, base, `bufinsd_whatif_chips_total{path="record"}`)
	full := metricCounter(t, base, `bufinsd_whatif_chips_total{path="full"}`)
	if rec != int64(want.Record) || full != int64(want.Full) || rec+full != int64(samples) {
		t.Fatalf("what-if chips record=%d full=%d, want %+v of %d", rec, full, want, samples)
	}
}

// TestPrepareWhatIfRecordChips: on a bench the server prepared, a narrow
// what-if is decided from the bench's period record, chip by chip, and
// /metrics counts those chips on the record path.
func TestPrepareWhatIfRecordChips(t *testing.T) {
	_, cl := newTestServer(t)
	spec := CircuitSpec{Gen: &gen.Config{NumFFs: 60, NumGates: 500, Seed: 11}}
	if _, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: spec, Options: tinyOptions()}); err != nil {
		t.Fatal(err)
	}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := expt.Prepare(c, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// One gate driving a capture's D pin: a narrow edit.
	edit := ""
	for _, f := range c.FFs() {
		if d := c.Nodes[f].Fanin[0]; c.Nodes[d].Kind.IsGate() {
			edit = c.Nodes[d].Name
			break
		}
	}
	edits := []expt.Edit{{Node: edit, DeltaPS: 20}}
	got, err := cl.Prepare(context.Background(), PrepareRequest{Circuit: spec, Options: tinyOptions(), WhatIf: edits})
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.WhatIf(edits)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mu != want.Period.Mu || got.Sigma != want.Period.Sigma || got.HoldViolRate != want.Period.HoldViolRate {
		t.Fatalf("service what-if %+v != in-process %+v", got, want.Period)
	}
	if want.Chips.Record == 0 {
		t.Fatalf("no chip decided from the period record: %+v", want.Chips)
	}
	checkWhatIfChips(t, cl.Base, want.Chips, want.Period.Samples)
}

func TestPrepareWhatIfBadNode(t *testing.T) {
	_, cl := newTestServer(t)
	_, err := cl.Prepare(context.Background(), PrepareRequest{
		Circuit: tinySpec(), Options: tinyOptions(),
		WhatIf: []expt.Edit{{Node: "definitely-not-a-node", DeltaPS: 5}},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("unknown node should 400 with a clear message, got %v", err)
	}
}

// TestInsertClampsWorkers: a client-chosen workers count is bounded to
// GOMAXPROCS at the serve boundary. mc starts one goroutine per worker,
// each with its own chip and pooled solver, so workers = samples would
// otherwise fan out one goroutine per sample. The plan must match the
// default parallelism's byte for byte.
func TestInsertClampsWorkers(t *testing.T) {
	const n = 4096
	_, def := newTestServer(t)
	want, err := def.Insert(context.Background(), insertReq(n, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t)
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
			select {
			case <-done:
				return
			case <-time.After(20 * time.Microsecond):
			}
		}
	}()
	req := insertReq(n, 5)
	req.Workers = n
	got, err := cl.Insert(context.Background(), req)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if limit := base + 4*runtime.GOMAXPROCS(0) + 16; int(peak.Load()) > limit {
		t.Fatalf("workers=%d peaked at %d goroutines, want <= %d (%d at start, GOMAXPROCS %d)", n, peak.Load(), limit, base, runtime.GOMAXPROCS(0))
	}
	wj, _ := json.Marshal(want.Plan)
	gj, _ := json.Marshal(got.Plan)
	if string(wj) != string(gj) || got.Stats != want.Stats {
		t.Fatalf("workers=%d plan diverges from workers=0:\n got %s\nwant %s", n, gj, wj)
	}
}

// TestClientHonoursContext: cancelling the caller's context abandons an
// in-flight request promptly instead of waiting out the daemon.
func TestClientHonoursContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The server notices the client hanging up only once the body is
		// consumed.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewClient(ts.URL).Yield(ctx, YieldRequest{})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled request returned after %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
	}
}

// TestPreparePanicEvicts: a panic inside the bench singleflight fails the
// request with a 500 instead of crashing the server, and evicts the entry
// so a retry prepares afresh rather than tripping over a half-built entry.
func TestPreparePanicEvicts(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec, opt := tinySpec(), tinyOptions()
	ck, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	key := ck + "|" + opt.Key()
	s.benches.put(key, &benchEntry{
		key:    key,
		prep:   func() (*expt.Bench, error) { panic("planted prepare panic") },
		plans:  newLRU(1),
		pops:   newLRU(1),
		sweeps: newLRU(1),
	})
	body, err := json.Marshal(PrepareRequest{Circuit: spec, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/v1/prepare", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	checkPanics(t, ts.URL, 0, 0)
	if code, msg := post(); code != http.StatusInternalServerError || !strings.Contains(msg, "planted prepare panic") {
		t.Fatalf("panicking prepare: HTTP %d %s, want 500 naming the panic", code, msg)
	}
	checkPanics(t, ts.URL, 1, 0)
	if n := s.benches.len(); n != 0 {
		t.Fatalf("the panicked entry stayed cached (%d entries)", n)
	}
	if code, msg := post(); code != http.StatusOK {
		t.Fatalf("retry after the panic: HTTP %d %s, want 200", code, msg)
	}
	checkPanics(t, ts.URL, 1, 0)
	if err := NewClient(ts.URL).Health(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverPanic: the singleflight guard passes a clean run through and
// turns a panic into a 500.
func TestRecoverPanic(t *testing.T) {
	ran := false
	if err := recoverPanic(func() { ran = true }); err != nil || !ran {
		t.Fatalf("clean run: ran=%v err=%v", ran, err)
	}
	err := recoverPanic(func() { panic("boom") })
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusInternalServerError || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic: got %v, want a 500 naming it", err)
	}
}

// TestInsertPassPanicIs500: a panic inside an insertion pass, on one of
// the sample loop's worker goroutines, reaches the plan singleflight (the
// mc work distributor re-raises it on the caller) instead of ending the
// daemon: the insert fails with a 500, and a retry on the repaired runner
// answers 200.
func TestInsertPassPanicIs500(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec, opt := tinySpec(), tinyOptions()
	e, _, err := s.getBench(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A graph without its skew vector realizes chips fine, but the first
	// pair bound a pass's solver reads indexes past the end of it.
	b := e.sys.Bench()
	bad := *b.Graph
	bad.Skew = nil
	e.mu.Lock()
	runner := e.runner
	e.runner = insertion.NewRunner(&bad, b.Placement)
	e.mu.Unlock()
	k := 0.0
	body, err := json.Marshal(InsertRequest{Circuit: spec, Options: opt, TargetK: &k, Samples: 50, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	if code, msg := post(); code != http.StatusInternalServerError || !strings.Contains(msg, "index out of range") {
		t.Fatalf("panicking pass: HTTP %d %s, want 500 naming the panic", code, msg)
	}
	e.mu.Lock()
	e.runner = runner
	e.mu.Unlock()
	if code, msg := post(); code != http.StatusOK {
		t.Fatalf("retry after the panic: HTTP %d %s, want 200", code, msg)
	}
}

// TestInsertPanicEvicts: a panic inside the plan singleflight fails the
// insert with a 500, and evicts the plan entry so a retry runs the flow
// afresh instead of finding it empty.
func TestInsertPanicEvicts(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec, opt := tinySpec(), tinyOptions()
	e, _, err := s.getBench(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Run on a nil runner panics on the calling goroutine. The runner is
	// swapped under e.mu, which Insert takes around its plan lookup and
	// eviction, so the swap is ordered with the handler's reads.
	e.mu.Lock()
	runner := e.runner
	e.runner = nil
	e.mu.Unlock()
	k := 0.0
	body, err := json.Marshal(InsertRequest{Circuit: spec, Options: opt, TargetK: &k, Samples: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	checkPanics(t, ts.URL, 0, 0)
	if code, msg := post(); code != http.StatusInternalServerError {
		t.Fatalf("panicking flow: HTTP %d %s, want 500", code, msg)
	}
	checkPanics(t, ts.URL, 0, 1)
	e.mu.Lock()
	n := e.plans.len()
	e.runner = runner
	e.mu.Unlock()
	if n != 0 {
		t.Fatalf("the panicked plan entry stayed cached (%d entries)", n)
	}
	if code, msg := post(); code != http.StatusOK {
		t.Fatalf("retry after the panic: HTTP %d %s, want 200", code, msg)
	}
	checkPanics(t, ts.URL, 0, 1)
}
