package yield

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/mc"
	"repro/internal/shard/wire"
)

func sampleTallies() []SweepTally {
	return []SweepTally{
		{FirstZero: []int{1, 2, 3}, FirstTuned: []int{0, 4, 1}},
		{FirstZero: []int{9, 0}}, // zero-only: FirstTuned stays nil
		{FirstZero: []int{5}, FirstTuned: []int{5}},
	}
}

func TestTalliesRoundTrip(t *testing.T) {
	ts := sampleTallies()
	buf := AppendTallies(nil, ts)
	var tb TallyBuf
	r := wire.NewReader(buf)
	got := tb.Decode(&r)
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Fatalf("round trip diverges:\n got  %+v\n want %+v", got, ts)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(ts)
	if string(gj) != string(wj) {
		t.Fatalf("JSON diverges:\n got  %s\n want %s", gj, wj)
	}
}

// TestTalliesRoundTripStratified: a stratified wave's tallies hold
// L·(nT+1) bins per histogram; the codec carries them whole, joint and
// zero-only alike, and the decoded batch passes the same CheckWave.
func TestTalliesRoundTripStratified(t *testing.T) {
	const L, lo, hi = 4, 8, 24
	sw := &SweepEvaluator{Ts: []float64{100, 110, 120}}
	bins := len(sw.Ts) + 1
	joint, zero := sw.WaveTally(L, false), sw.WaveTally(L, true)
	for k := lo; k < hi; k++ {
		off := mc.Stratum(k, L) * bins
		joint.FirstZero[off+k%bins]++
		joint.FirstTuned[off+k%2]++
		zero.FirstZero[off+(k/L)%bins]++
	}
	ts := []SweepTally{joint, zero}
	var tb TallyBuf
	r := wire.NewReader(AppendTallies(nil, ts))
	got := tb.Decode(&r)
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Fatalf("round trip diverges:\n got  %+v\n want %+v", got, ts)
	}
	if len(got[0].FirstZero) != L*bins || len(got[1].FirstZero) != L*bins || got[1].FirstTuned != nil {
		t.Fatalf("decoded shapes: %d/%d zero bins, zero-only tuned %v", len(got[0].FirstZero), len(got[1].FirstZero), got[1].FirstTuned)
	}
	sweeps := []*SweepEvaluator{sw}
	if err := CheckWave(sweeps, got[:1], lo, hi, false, L); err != nil {
		t.Errorf("decoded joint tally: %v", err)
	}
	if err := CheckWave(sweeps, got[1:], lo, hi, true, L); err != nil {
		t.Errorf("decoded zero-only tally: %v", err)
	}
}

func TestTalliesPreserveZeroOnlyNil(t *testing.T) {
	// CheckWave tells the wave kinds apart by FirstTuned presence; the codec must
	// not normalize a zero-only tally into a full one or vice versa.
	ts := []SweepTally{{FirstZero: []int{7, 7}, FirstTuned: nil}}
	var tb TallyBuf
	r := wire.NewReader(AppendTallies(nil, ts))
	got := tb.Decode(&r)
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if got[0].FirstTuned != nil {
		t.Fatalf("zero-only tally decoded with FirstTuned = %v, want nil", got[0].FirstTuned)
	}
}

func TestTalliesTruncatedFrame(t *testing.T) {
	buf := AppendTallies(nil, sampleTallies())
	for _, cut := range []int{len(buf) / 2, len(buf) - 1, 2} {
		var tb TallyBuf
		r := wire.NewReader(buf[:cut])
		tb.Decode(&r)
		if r.Done() == nil {
			t.Fatalf("cut at %d decoded cleanly", cut)
		}
	}
}

func TestTalliesDecodeDoesNotAllocateWarm(t *testing.T) {
	ts := sampleTallies()
	buf := make([]byte, 0, 1024)
	var tb TallyBuf
	buf = AppendTallies(buf, ts)
	r := wire.NewReader(buf)
	tb.Decode(&r)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendTallies(buf[:0], ts)
		r := wire.NewReader(buf)
		if got := tb.Decode(&r); len(got) != len(ts) {
			panic("decode broke")
		}
		if err := r.Done(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm encode+decode allocated %v/op, want 0", allocs)
	}
}
