package insertion

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/shard/wire"
)

func sampleOutcomes() []SampleOutcome {
	return []SampleOutcome{
		{},
		{Feasible: true},
		{Feasible: true, NK: 2, Tuned: []Tuning{{FF: 3, Val: 1.25}, {FF: 9, Val: -0.5}}},
		{SelfLoop: true},
		{Feasible: true, Truncated: 1, NK: 5, Tuned: []Tuning{{FF: 0, Val: 0.1}}},
		{Truncated: 2},
	}
}

func TestOutcomesRoundTrip(t *testing.T) {
	outs := sampleOutcomes()
	buf := AppendOutcomes(nil, outs)
	var ob OutcomeBuf
	r := wire.NewReader(buf)
	got := ob.Decode(&r)
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if !reflect.DeepEqual(got, outs) {
		t.Fatalf("round trip diverges:\n got  %+v\n want %+v", got, outs)
	}
	// The JSON forms must agree too — the codecs are interchangeable on
	// the byte-identical path.
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(outs)
	if string(gj) != string(wj) {
		t.Fatalf("JSON diverges:\n got  %s\n want %s", gj, wj)
	}
}

func TestOutcomesTruncatedFrame(t *testing.T) {
	buf := AppendOutcomes(nil, sampleOutcomes())
	for _, cut := range []int{len(buf) / 2, len(buf) - 1, 1, 3} {
		var ob OutcomeBuf
		r := wire.NewReader(buf[:cut])
		if got := ob.Decode(&r); got != nil {
			// A truncated frame may decode a prefix; Done must still fail.
			_ = got
		}
		if r.Done() == nil {
			t.Fatalf("cut at %d decoded cleanly", cut)
		}
	}
}

func TestOutcomesRejectsUnknownFlags(t *testing.T) {
	buf := wire.AppendU32(nil, 1)
	buf = wire.AppendU8(buf, 0x80) // flag bit from a future layout
	buf = wire.AppendInt(buf, 0)   // truncated
	buf = wire.AppendInt(buf, 0)   // NK
	buf = wire.AppendU32(buf, 0)
	var ob OutcomeBuf
	r := wire.NewReader(buf)
	if got := ob.Decode(&r); got != nil {
		t.Fatalf("decoded %v from a frame with unknown flags", got)
	}
	if !errors.Is(r.Err(), wire.ErrValue) {
		t.Fatalf("Err = %v, want ErrValue", r.Err())
	}
}

func TestOutcomesDecodeDoesNotAllocateWarm(t *testing.T) {
	outs := sampleOutcomes()
	buf := make([]byte, 0, 1024)
	var ob OutcomeBuf
	// Warm both arenas once.
	buf = AppendOutcomes(buf, outs)
	r := wire.NewReader(buf)
	ob.Decode(&r)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendOutcomes(buf[:0], outs)
		r := wire.NewReader(buf)
		if got := ob.Decode(&r); len(got) != len(outs) {
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
