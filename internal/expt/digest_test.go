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
// sparse pivot rows and small-pass chunking landed, and hold on amd64, where
// the compiler never fuses multiply-adds (other architectures may round
// differently, so the test only runs there).
var rowDigests = map[uint64]string{
	101: "90382ac8c111369bd66fc191b77260531102c584a0cc697a9f13256460f4c16d",
	202: "6318a89e4b865cc83557c8754882cd24a50e5df5805c3a3c2e93d6b2efa19696",
	303: "17e28ea35813f36e215c8236b944264a9394bad2f574d05405e69fa3492a24ea",
	404: "f05f16a04415ed54ab7c0c26a9729e2dee30a109bc664852e80029251cc63b77",
	505: "a06e59307d777b4e5fc5284bb747f9d3df5fed1c744970d3a7725945b09a0aef",
	606: "98449fb3f86203b75d8d879cc71e72211aa53af82753c155357055788306dc42",
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
// (yield.Drive).
var adaptiveRowDigests = map[uint64]string{
	101: "67933ce261bdc1252df8eff4e7c3b96824a7e74e9c80d2620cff4a7c7260d4be",
	202: "ae5a8e70a4eee50b24c3d4ab87865e79ff88d77187b0be5c14a024e312df03d1",
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
