package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json at tiny size, untraced
// and traced, and checks that every answer is correct and that the run
// reports exactly the metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkJSON
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bench.PerLayer), len(perLayer))
	}
	for _, wl := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				w, err := newWorkload(wl.Name, 1, true, out)
				if err != nil {
					t.Fatal(err)
				}
				res, err := measure(context.Background(), w, wl.Name, 1, time.Second, traced, true, out)
				w.close()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := bench.EndToEnd
				if traced {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
			})
		}
	}
}
