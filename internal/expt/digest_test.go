package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
)

// rowDigests pins the SHA-256 of the JSON-encoded RunRows output (every
// plan, statistic and yield, Runtime zeroed) for s9234 at 150 insertion /
// 750 evaluation samples, all three targets. Solver speed-ups must be exact:
// any change in a buffer plan, a per-sample value or a yield count moves a
// digest. The digests were recorded before the integral-objective pruning,
// sparse pivot rows and small-pass chunking landed, again when support
// projection replaced the per-sample concentration ILP (plans move where
// supports tie; insertion's TestPlanEquivalence bounds the move), once
// more when the flow's Stats lost its count of two-ILP components (each
// the previous encoding's hash with that field cut out), and when the
// nk ≥ 2 projection took the componentwise-least optimum of a min-cost
// flow instead of the simplex's pivot-order choice (the same gate bounds
// that move). They hold on amd64,
// where the compiler never fuses multiply-adds (other architectures may
// round differently, so the test only runs there).
var rowDigests = map[uint64]string{
	101: "45a7d0f209a50362589853f8fc09137ddc427c818c9319f1428bb0096f36274b",
	202: "7fb4493cdc0fa07a4a3473dec7dfe34ed14ea51a5bd955401b8d356fa7c4b7ad",
	303: "1568a8c9c3f25adfca19fc3dacf277a13989e9d469e6ce5348de1990efbbc769",
	404: "3ed9c0abf7d4c299bdecea1c1d8df10f31adce2ffd65fc88306be3b30c292a7c",
	505: "8c2573d7ae89cc73edf5a35bf457274098994b9b6118d4e7a4089e10e36a108a",
	606: "5441c18bce1ff8eab28b76f5ecc245d3b8dc0543c7dc9f38a55996edc15c9a83",
}

func TestRunRowsDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full s9234 row-sets")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded with amd64 floating-point rounding")
	}
	b, err := PreparePreset("s9234", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{101, 202, 303, 404, 505, 606} {
		rows, err := RunRows(b, Targets, RowConfig{InsertSamples: 150, EvalSamples: 750, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			rows[i].Runtime = 0
		}
		raw, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != rowDigests[seed] {
			t.Errorf("seed %d: RunRows digest %s, want %s", seed, got, rowDigests[seed])
		}
	}
}

// adaptiveRowDigests pins RunRows under Eps 0.02 the same way: the rows then
// carry adaptive reports from the shared wave loop. They were recorded
// before fixed-n and adaptive evaluation were merged into one executor
// (yield.Drive), and again with rowDigests when support projection landed,
// when Stats lost its two-ILP component count, when the projection
// took the componentwise-least optimum, and alone when the stopping rule
// started crediting the strata (stat.StratifiedHalfWidth).
var adaptiveRowDigests = map[uint64]string{
	101: "5fb2d439e6ba565b7e2868446a58fa356e8232df6513bc9b17cb4cf87a37361d",
	202: "ca1cc5281fefffa32069ff49f0679a7a91f33aded9aa1ba80383fdc3656126ea",
}

func TestRunRowsAdaptiveDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full s9234 row-sets")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded with amd64 floating-point rounding")
	}
	b, err := PreparePreset("s9234", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{101, 202} {
		rows, err := RunRows(b, Targets, RowConfig{InsertSamples: 150, EvalSamples: 750, Seed: seed, Eps: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			rows[i].Runtime = 0
		}
		raw, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != adaptiveRowDigests[seed] {
			t.Errorf("seed %d: adaptive RunRows digest %s, want %s", seed, got, adaptiveRowDigests[seed])
		}
	}
}
