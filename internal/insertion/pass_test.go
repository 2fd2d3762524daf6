package insertion

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// tilePass builds a PassFunc that executes each pass as several PassRange
// tiles over uneven contiguous ranges and reassembles the outcomes by
// index — the in-process skeleton of the distributed coordinator. To make
// the serialization boundary real, every tile's outcomes round-trip
// through JSON exactly as the shard wire protocol ships them.
func tilePass(t *testing.T, r *Runner, cfg Config, cuts []int) PassFunc {
	t.Helper()
	return func(spec PassSpec) ([]SampleOutcome, error) {
		out := make([]SampleOutcome, cfg.Samples)
		lo := 0
		for _, hi := range append(append([]int(nil), cuts...), cfg.Samples) {
			if hi <= lo {
				continue
			}
			part, err := r.PassRange(context.Background(), cfg, spec, lo, hi)
			if err != nil {
				return nil, err
			}
			data, err := json.Marshal(part)
			if err != nil {
				return nil, err
			}
			var wire []SampleOutcome
			if err := json.Unmarshal(data, &wire); err != nil {
				return nil, err
			}
			copy(out[lo:hi], wire)
			lo = hi
		}
		return out, nil
	}
}

// TestTiledPassesByteIdentical: a flow whose passes are executed as uneven
// k-range tiles (JSON round trip included) must reproduce the in-process
// flow exactly — plans, per-step statistics, everything.
func TestTiledPassesByteIdentical(t *testing.T) {
	g, T, pl := buildBench(t, 25, 120, 41)
	cfg := Config{T: T, Samples: 180, Seed: 13}
	want, err := Run(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cuts := range [][]int{{90}, {1, 63, 64, 179}, {37, 37, 111}} {
		r := NewRunner(g, pl)
		dcfg := cfg
		dcfg.Pass = tilePass(t, r, cfg, cuts)
		got, err := r.Run(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Buffers, want.Buffers) || !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("cuts %v: tiled flow result diverges from in-process", cuts)
		}
		gs, ws := got.Stats, want.Stats
		gs.ValuesStep1, ws.ValuesStep1 = nil, nil // map order-independent deep-equal below
		gs.ValuesStep2, ws.ValuesStep2 = nil, nil
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("cuts %v: stats diverge:\n got %+v\nwant %+v", cuts, gs, ws)
		}
		if !reflect.DeepEqual(got.Stats.ValuesStep1, want.Stats.ValuesStep1) ||
			!reflect.DeepEqual(got.Stats.ValuesStep2, want.Stats.ValuesStep2) {
			t.Fatalf("cuts %v: per-FF value lists diverge", cuts)
		}
	}
}

// TestPassHookRejectsOutOfRangeFF: a Config.Pass result that tunes an FF
// outside the circuit fails the flow with an error instead of panicking
// in the reduction.
func TestPassHookRejectsOutOfRangeFF(t *testing.T) {
	g, T, pl := buildBench(t, 10, 40, 42)
	cfg := Config{T: T, Samples: 20, Seed: 3}
	cfg.Pass = func(PassSpec) ([]SampleOutcome, error) {
		out := make([]SampleOutcome, cfg.Samples)
		out[0] = SampleOutcome{Feasible: true, NK: 1, Tuned: []Tuning{{FF: 1 << 20}}}
		return out, nil
	}
	if _, err := Run(g, pl, cfg); err == nil {
		t.Fatal("flow accepted a pass outcome tuning an FF outside the circuit")
	}
}

// TestPassRangeValidation: malformed specs and ranges fail loudly instead
// of silently desynchronizing a distributed run.
func TestPassRangeValidation(t *testing.T) {
	g, T, pl := buildBench(t, 10, 40, 42)
	r := NewRunner(g, pl)
	cfg := Config{T: T, Samples: 50, Seed: 1}
	cases := []struct {
		spec   PassSpec
		lo, hi int
	}{
		{PassSpec{Kind: PassFloating}, -1, 10},
		{PassSpec{Kind: PassFloating}, 10, 51},
		{PassSpec{Kind: PassFloating}, 20, 10},
		{PassSpec{Kind: "bogus"}, 0, 10},
		{PassSpec{Kind: PassFixed}, 0, 10},                                                     // missing lower bounds
		{PassSpec{Kind: PassFixed, Lower: make([]float64, g.NS), Allowed: []int{g.NS}}, 0, 10}, // FF out of range
		{PassSpec{Kind: PassFixed, Lower: make([]float64, g.NS), Center: []float64{1}}, 0, 10}, // short centers
	}
	for i, c := range cases {
		if _, err := r.PassRange(context.Background(), cfg, c.spec, c.lo, c.hi); err == nil {
			t.Errorf("case %d: PassRange(%+v, [%d,%d)) succeeded, want error", i, c.spec, c.lo, c.hi)
		}
	}
}
