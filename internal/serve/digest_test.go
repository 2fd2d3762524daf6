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
// (yield.Drive), and hold on amd64 (see rowDigests in internal/expt). All
// but fixed/301 were re-recorded when support projection replaced the
// per-sample concentration ILP: the plans moved where supports tie
// (insertion's TestPlanEquivalence bounds the move). The stratified
// adaptive digests were re-recorded again when the stopping rule started
// crediting the strata (stat.StratifiedHalfWidth); adaptive-unstratified
// (Strata -1) was recorded before that change and pins the unstratified
// rule to it.
var queryDigests = map[string]string{
	"fixed/301":                   "9c4726b2c374d5834fba9ae94f10c2313c1a7843d8ab85a16ef4afa929133ffd",
	"adaptive/301":                "6a5b92465b2927d613e28a069e1033dab6baf1122203344da5f89240770ca2f7",
	"fixed/2001":                  "7560a17945b1a622ba5d72891ae5f90f4ddd5618be4d96f45538468bbf82a644",
	"adaptive/2001":               "b415dd07fdbf9f1f96bad436627cd0c91ca40842bb5c211f91c15b452f001ec4",
	"adaptive-tight/20001":        "d9fc2d49567388b511b2eb77bed5353ec77a703c0d2ceb2a695c413d6379b77e",
	"adaptive-unstratified/20001": "fedba28978e18cc48b3ddfbd0e989bcf9fbdceed340f85d3aeee2686ac1fce80",
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
	plain, err := EvaluateQueriesAdaptive(b.Graph, seed, 20001, queries, yield.Precision{Eps: 0.01, Strata: -1})
	check("adaptive-unstratified/20001", plain, err)
}
