package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/serve"
	"repro/internal/shard"
)

// tinyBench prepares a generated circuit the way expt.Prepare would but at
// test scale (the Table I presets cost seconds of SSTA each).
func tinyBench(t *testing.T) (*expt.Bench, serve.CircuitSpec, expt.Options) {
	t.Helper()
	spec := serve.CircuitSpec{Gen: &gen.Config{NumFFs: 18, NumGates: 80, Seed: 21}}
	opt := expt.Options{PeriodSamples: 400}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := expt.Prepare(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b, spec, opt
}

// TestShardedRowsByteIdentical drives the exact wiring the -workers flag
// uses — expt.RunRows with a serve.Coordinator's InsertPass/RowTally over
// two worker daemons and uneven 7-range splits — and demands the rows
// match the in-process run on every reported field. Runtime is wall
// clock (the one column that legitimately differs between schedules) and
// Insert holds in-process-only diagnostics; everything the table and CSV
// print besides runtime comes from the compared fields.
func TestShardedRowsByteIdentical(t *testing.T) {
	b, spec, opt := tinyBench(t)
	rc := expt.RowConfig{InsertSamples: 130, EvalSamples: 300, Seed: 5}
	want, err := expt.RunRows(b, expt.Targets, rc)
	if err != nil {
		t.Fatal(err)
	}

	var workers []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		t.Cleanup(ts.Close)
		workers = append(workers, ts.URL)
	}
	pool := shard.NewPool(workers)
	coord := serve.NewCoordinator(pool, 7, spec, opt,
		core.NewSystem(b), insertion.NewRunner(b.Graph, b.Placement))
	src := rc
	src.Pass = func(cfg insertion.Config) insertion.PassFunc { return coord.InsertPass(context.Background(), cfg) }
	src.Tally = coord.RowTally(context.Background())
	got, err := expt.RunRows(b, expt.Targets, src)
	if err != nil {
		t.Fatal(err)
	}

	if pool.C.Dispatched.Load() == 0 {
		t.Fatal("no ranges were dispatched to the workers")
	}
	for i := range want {
		w, g := want[i], got[i]
		w.Runtime, g.Runtime = 0, 0
		w.Insert, g.Insert = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("row %d diverges:\n got %+v\nwant %+v", i, g, w)
		}
	}
}
