package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/shard"
	"repro/internal/shard/wire"
	"repro/internal/yield"
)

func wireInsertReq() InsertPassRequest {
	return InsertPassRequest{
		Circuit: CircuitSpec{Gen: &gen.Config{NumFFs: 8, NumGates: 30, Seed: 3}},
		Options: expt.Options{PeriodSamples: 100},
		T:       812.5,
		Samples: 130,
		Seed:    5,
		Pass:    insertion.PassSpec{},
	}
}

func wireYieldReq() YieldPassRequest {
	return YieldPassRequest{
		Circuit:     CircuitSpec{Preset: "s27"},
		Options:     expt.Options{PeriodSamples: 100},
		EvalSamples: 400,
		Seed:        0x1005,
		Queries:     []YieldQuery{{Plan: insertion.Plan{T: 812.5}, Periods: []float64{800, 812.5}}},
		ZeroOnly:    true,
		Strata:      64,
	}
}

// reqJSON is the comparison form for request round trips: the full JSON
// encoding, which covers every field including nil-vs-empty slices.
func reqJSON(t *testing.T, v any) string {
	t.Helper()
	j, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

func TestInsertPassRequestRoundTrip(t *testing.T) {
	req := wireInsertReq()
	header, err := json.Marshal(req) // Range zero, as the coordinator sends it
	if err != nil {
		t.Fatal(err)
	}
	rng := shard.Range{Lo: 17, Hi: 101}
	frame := appendPassRequest(nil, header, rng)
	got, err := decodeInsertPassRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	want := req
	want.Range = rng
	if reqJSON(t, got) != reqJSON(t, want) {
		t.Fatalf("round trip diverges:\n got  %s\n want %s", reqJSON(t, got), reqJSON(t, want))
	}
}

func TestYieldPassRequestRoundTrip(t *testing.T) {
	req := wireYieldReq()
	header, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rng := shard.Range{Lo: 0, Hi: 57}
	frame := appendPassRequest(nil, header, rng)
	got, err := decodeYieldPassRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	want := req
	want.Range = rng
	if reqJSON(t, got) != reqJSON(t, want) {
		t.Fatalf("round trip diverges:\n got  %s\n want %s", reqJSON(t, got), reqJSON(t, want))
	}
}

func TestInsertPassResponseRoundTrip(t *testing.T) {
	resp := &InsertPassResponse{
		Outcomes: []insertion.SampleOutcome{
			{Feasible: true, NK: 1, Tuned: []insertion.Tuning{{FF: 2, Val: 0.75}}},
			{SelfLoop: true},
			{},
		},
		ElapsedMS: 42,
	}
	frame := resp.appendFrame(nil)
	got, err := decodeInsertPassResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if reqJSON(t, got) != reqJSON(t, resp) {
		t.Fatalf("round trip diverges:\n got  %s\n want %s", reqJSON(t, got), reqJSON(t, resp))
	}
}

// TestInsertPassResponseRejectsVersion2: a version-2 worker framed each
// outcome with a fourth counter (components repaired by the two-ILP
// route). Its frames must be refused by version, not misread as the
// current layout.
func TestInsertPassResponseRejectsVersion2(t *testing.T) {
	frame := wire.AppendU8(nil, 2)
	frame = wire.AppendU32(frame, 1)
	frame = wire.AppendU8(frame, 1)  // feasible
	frame = wire.AppendInt(frame, 0) // truncated
	frame = wire.AppendInt(frame, 1) // NK
	frame = wire.AppendInt(frame, 1) // two-ILP components
	frame = wire.AppendU32(frame, 0)
	frame = wire.AppendInt(frame, 42) // elapsed ms
	if _, err := decodeInsertPassResponse(frame); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("version-2 frame: err = %v, want ErrVersion", err)
	}
	frame[0] = wire.Version
	if _, err := decodeInsertPassResponse(frame); err == nil {
		t.Fatal("version-2 layout decoded cleanly under the current version")
	}
}

func TestYieldPassResponseRoundTrip(t *testing.T) {
	resp := &YieldPassResponse{
		Tallies: []yield.SweepTally{
			{FirstZero: []int{3, 1, 0}, FirstTuned: []int{2, 2, 0}},
			{FirstZero: []int{4, 0}}, // zero-only
		},
		ElapsedMS: 7,
	}
	frame := resp.appendFrame(nil)
	got, err := decodeYieldPassResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if reqJSON(t, got) != reqJSON(t, resp) {
		t.Fatalf("round trip diverges:\n got  %s\n want %s", reqJSON(t, got), reqJSON(t, resp))
	}
	if got.Tallies[1].FirstTuned != nil {
		t.Fatal("zero-only tally decoded with FirstTuned present")
	}
}

// TestTruncatedBinaryFrameClassifiesCorrupt is the truncate-mid-frame
// guarantee: a worker whose 200 response carries a short binary frame —
// or no frame at all, like a JSON body — must classify ClassCorrupt at
// the coordinator: the partial is discarded and retried, never merged.
func TestTruncatedBinaryFrameClassifiesCorrupt(t *testing.T) {
	resp := &InsertPassResponse{
		Outcomes: []insertion.SampleOutcome{
			{Feasible: true, Tuned: []insertion.Tuning{{FF: 1, Val: 2}}},
			{Feasible: true},
		},
		ElapsedMS: 3,
	}
	full := resp.appendFrame(nil)
	asJSON, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated":   full[:len(full)/2],
		"mangled":     append([]byte{'!'}, full[1:]...), // chaos corrupt: first byte flipped
		"wrong-count": appendPassRequest(nil, []byte("{}"), shard.Range{}),
		"json":        asJSON, // a worker that answered JSON instead of a frame
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", wire.ContentType)
				w.Write(body)
			}))
			defer ts.Close()
			pool := shard.NewPoolWith([]string{ts.URL}, shard.Options{})
			header, _ := json.Marshal(wireInsertReq())
			_, err := postPass(context.Background(), pool.Workers()[0], insertPassPath, header, shard.Range{Lo: 0, Hi: 2}, decodeInsertPassResponse)
			if err == nil {
				t.Fatal("short/mangled/non-frame body decoded cleanly")
			}
			if got := shard.ClassOf(err); got != shard.ClassCorrupt {
				t.Fatalf("class = %v, want ClassCorrupt (err: %v)", got, err)
			}
		})
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes to every binary frame decoder:
// nothing may panic, a clean decode must re-encode to a frame that
// decodes to the same value, and a rejected frame must surface a wire
// sentinel that the coordinator maps to ClassCorrupt.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add((&InsertPassResponse{
		Outcomes:  []insertion.SampleOutcome{{Feasible: true, NK: 2, Tuned: []insertion.Tuning{{FF: 1, Val: 0.5}}}},
		ElapsedMS: 9,
	}).appendFrame(nil))
	f.Add((&YieldPassResponse{
		Tallies:   []yield.SweepTally{{FirstZero: []int{1, 0}, FirstTuned: []int{1, 0}}, {FirstZero: []int{2}}},
		ElapsedMS: 1,
	}).appendFrame(nil))
	hdr, _ := json.Marshal(wireYieldReq())
	f.Add(appendPassRequest(nil, hdr, shard.Range{Lo: 3, Hi: 9}))
	f.Add([]byte{wire.Version})
	f.Fuzz(func(t *testing.T, data []byte) {
		if resp, err := decodeInsertPassResponse(data); err == nil {
			re := resp.appendFrame(nil)
			resp2, err := decodeInsertPassResponse(re)
			if err != nil {
				t.Fatalf("re-encoded insert frame failed to decode: %v", err)
			}
			if reqJSON(t, resp) != reqJSON(t, resp2) {
				t.Fatalf("insert frame not canonical:\n a %s\n b %s", reqJSON(t, resp), reqJSON(t, resp2))
			}
		}
		if resp, err := decodeYieldPassResponse(data); err == nil {
			re := resp.appendFrame(nil)
			resp2, err := decodeYieldPassResponse(re)
			if err != nil {
				t.Fatalf("re-encoded yield frame failed to decode: %v", err)
			}
			if reqJSON(t, resp) != reqJSON(t, resp2) {
				t.Fatalf("yield frame not canonical:\n a %s\n b %s", reqJSON(t, resp), reqJSON(t, resp2))
			}
		}
		if req, err := decodeInsertPassRequest(data); err == nil {
			hdr := req
			hdr.Range = shard.Range{}
			header, merr := json.Marshal(hdr)
			if merr == nil {
				re := appendPassRequest(nil, header, req.Range)
				req2, err := decodeInsertPassRequest(re)
				if err != nil {
					t.Fatalf("re-encoded request failed to decode: %v", err)
				}
				if reqJSON(t, req) != reqJSON(t, req2) {
					t.Fatalf("request frame not canonical")
				}
			}
		}
		_, _ = decodeYieldPassRequest(data) // exercised for panics only
	})
}
