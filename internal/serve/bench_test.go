package serve

import (
	"net/http/httptest"
	"testing"
	"time"
)

// benchInsertReq is the query both benchmarks answer; bigger period
// sampling than the unit tests so the cold path carries a realistic
// preparation cost.
func benchInsertReq() InsertRequest {
	req := insertReq(150, 3)
	req.Options.PeriodSamples = 2000
	return req
}

// BenchmarkServeWarmQuery times a warm-cache (circuit, T, budget) query:
// the bench is prepared, the solver pool is hot, and the identical query
// is answered from the plan cache — the steady state of a long-running
// service.
func BenchmarkServeWarmQuery(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	if _, err := cl.Insert(benchInsertReq()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Insert(benchInsertReq()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeColdPrepare times the same query against a cold server —
// every request pays the full prepare (SSTA + period distribution) the
// warm cache amortizes away.
func BenchmarkServeColdPrepare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		cl := NewClient(ts.URL)
		if _, err := cl.Insert(benchInsertReq()); err != nil {
			b.Fatal(err)
		}
		ts.Close()
	}
}

// BenchmarkShardedYieldSweep times a coordinated multi-worker yield sweep
// over loopback HTTP: two in-process worker servers answer
// /v1/shard/yield-pass, the coordinator merges their tallies. Like the
// serve benches it stays out of the gated BENCH baselines (loopback-HTTP
// jitter swamps the 30 % gate); ci.sh smokes it for one iteration.
func BenchmarkShardedYieldSweep(b *testing.B) {
	workers := make([]string, 2)
	for i := range workers {
		ts := httptest.NewServer(New(Config{}).Handler())
		defer ts.Close()
		workers[i] = ts.URL
	}
	s := New(Config{Workers: workers, Shards: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ins, err := cl.Insert(benchInsertReq())
	if err != nil {
		b.Fatal(err)
	}
	Ts := make([]float64, 10)
	for i := range Ts {
		Ts[i] = ins.T + float64(i-3)*10
	}
	req := YieldRequest{
		Circuit:     benchInsertReq().Circuit,
		Options:     benchInsertReq().Options,
		EvalSamples: 2000,
		Seed:        0x1003,
		Queries:     []YieldQuery{{Plan: ins.Plan, Periods: Ts}},
	}
	// Warm both workers' bench caches before timing.
	if _, err := cl.Yield(req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Yield(req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmSpeedup pins the acceptance bar: a warm-cache hit must be at
// least 10× faster than a cold prepare-per-request. The measured gap is
// orders of magnitude (µs-scale cache hit vs SSTA + thousands of Monte
// Carlo realizations), so the 10× assertion holds with huge margin even
// on loaded CI machines.
func TestWarmSpeedup(t *testing.T) {
	cold := func() time.Duration {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		cl := NewClient(ts.URL)
		start := time.Now()
		if _, err := cl.Insert(benchInsertReq()); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}()

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	if _, err := cl.Insert(benchInsertReq()); err != nil {
		t.Fatal(err)
	}
	warm := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		resp, err := cl.Insert(benchInsertReq())
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatal("warm query must be a cache hit")
		}
		if d := time.Since(start); d < warm {
			warm = d
		}
	}
	if warm*10 > cold {
		t.Fatalf("warm query %v not ≥10× faster than cold %v", warm, cold)
	}
	t.Logf("cold %v, warm %v (%.0f×)", cold, warm, float64(cold)/float64(warm))
}
