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
// sparse pivot rows and small-pass chunking landed, and again when support
// projection replaced the per-sample concentration ILP (plans move where
// supports tie; insertion's TestPlanEquivalence bounds the move, and the
// flow's Stats gained MILPComponents). They hold on amd64, where
// the compiler never fuses multiply-adds (other architectures may round
// differently, so the test only runs there).
var rowDigests = map[uint64]string{
	101: "0f2ec3e9b9c028968976bef8feb0c5203d754cec72f5185a2e1340315b56dd53",
	202: "40272b912cee94bda6265d1e5d85c7869d14aee3f28ae28db7cddb077774b31e",
	303: "2bfab12bf7e088621f61f181a988065357180a77e4b383eeb32c30641827e1a5",
	404: "7ad1bf22a145eea1dabd5a3a3c1fcccdc47308f075824641df856b6b3f06d590",
	505: "432a63cf45df6e012ffff0bec12271945c049046975c665dfd167fa2ecc736f2",
	606: "d97d3c4d3f7ea43459d4f8dbf000dee2a77e2f110a1a370bf80ceb36b9047ceb",
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
// (yield.Drive), and again with rowDigests when support projection landed.
var adaptiveRowDigests = map[uint64]string{
	101: "3e4e34686b5bf1c8709af009b81203a3d5e013ca566f6394f00b1667d9c35580",
	202: "611a0accc7e4c72ca6b884abb4e8be25c7cfdfc699b6a4cfd8670726b6371d47",
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
