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
// supports tie; insertion's TestPlanEquivalence bounds the move), and once
// more when the flow's Stats lost its count of two-ILP components: each is
// the previous encoding's hash with that field cut out. They hold on amd64,
// where the compiler never fuses multiply-adds (other architectures may
// round differently, so the test only runs there).
var rowDigests = map[uint64]string{
	101: "b544b88cd8b6c8204dadef83fcf427cb7431602d11fb12d6d1166c2378d03124",
	202: "48b1d402e0e5d2c59581bbfb508e0e777fcbb6f909f4bb5f19b787633aa89c21",
	303: "9fca928061b373c0e382589197291afa43bfa496220d115224761f2b50d2667f",
	404: "8025f3d2f4a4c8b728429698a6bb7cbcdef65bea11f23f7f629b711ea1064b81",
	505: "9273ee5d14ce22ae30ddfe053981ce6192db4c7defabc5b64fd1e0171d6d2d0b",
	606: "7dedd4bf4b8646fd9783b996fe916d65741c760f08441ae3d87b1f48788fa4f2",
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
// (yield.Drive), and again with rowDigests when support projection landed
// and when Stats lost its two-ILP component count.
var adaptiveRowDigests = map[uint64]string{
	101: "e63518eb996bd9ac92c293c629d52c95896d65907a12cdea583698127a6f8114",
	202: "6975292267ced220df0bb7bfb6e57187126d839379b46cea2f6df44789865455",
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
