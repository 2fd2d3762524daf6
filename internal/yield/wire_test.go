package yield

import (
	"encoding/json"
	"reflect"
	"testing"

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
