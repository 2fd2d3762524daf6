package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/expt"
	"repro/internal/mc"
	"repro/internal/yield"
)

// queryDigests pins the SHA-256 of the JSON-encoded results of the two
// in-process query evaluators on s9234. The queries carry RunRows' seed-101
// plans: one over a 3-period sweep, one expanded into the baseline
// strategies, one at its own target. The tight case runs zero-only waves
// and stops at the cap. The odd sample counts matter: the adaptive wave
// schedule floors waves to whole stratification cycles, and fixed-n
// evaluation must still count every chip. The digests were recorded before
// fixed-n and adaptive evaluation were merged into one executor
// (yield.Drive), and hold on amd64 (see rowDigests in internal/expt).
var queryDigests = map[string]string{
	"fixed/301":            "9c4726b2c374d5834fba9ae94f10c2313c1a7843d8ab85a16ef4afa929133ffd",
	"adaptive/301":         "fc51b9c9b9dcd1e7a73315594be9a18c1435ebb5cedd4500a0c534f34c5afe09",
	"fixed/2001":           "1a27dc4f958059e659831bdc7934d6465511e47e6fceb46fac061049145baf88",
	"adaptive/2001":        "61e1b78f99732cc7726954e1bc00a3da321bcf951d036ad8f1e5a7464b06fe61",
	"adaptive-tight/20001": "c25133eedd27b63ede51c44e8afb33dc195955c9dae63eb80b9e46f898caf2d9",
}

func TestQueryDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full s9234 row-set and query batches")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded with amd64 floating-point rounding")
	}
	b, err := expt.PreparePreset("s9234", expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := expt.RunRows(b, expt.Targets, expt.RowConfig{InsertSamples: 150, EvalSamples: 750, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1, p2 := rows[0].Insert.Plan(b.Name), rows[1].Insert.Plan(b.Name), rows[2].Insert.Plan(b.Name)
	queries := []YieldQuery{
		{Plan: p0, Periods: []float64{p0.T - 20, p0.T, p0.T + 20}},
		{Plan: p1, Strategies: true, StrategySeed: 5},
		{Plan: p2},
	}
	const seed = 101 + 0x1000
	check := func(name string, results []YieldResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != queryDigests[name] {
			t.Errorf("%s: digest %s, want %s", name, got, queryDigests[name])
		}
	}
	for _, n := range []int{301, 2001} {
		fixed, err := EvaluateQueries(context.Background(), b.Graph, mc.New(b.Graph, seed), n, queries)
		check(fmt.Sprintf("fixed/%d", n), fixed, err)
		adaptive, err := EvaluateQueriesAdaptive(b.Graph, seed, n, queries, yield.Precision{Eps: 0.03, Conf: 0.9})
		check(fmt.Sprintf("adaptive/%d", n), adaptive, err)
	}
	tight, err := EvaluateQueriesAdaptive(b.Graph, seed, 20001, queries[:1], yield.Precision{Eps: 0.01})
	check("adaptive-tight/20001", tight, err)
}
