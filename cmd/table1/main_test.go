package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/serve"
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
// uses — tableRows through an in-process server coordinating two worker
// daemons with uneven 7-range splits — and demands the rows match
// expt.RunRows on every reported field. That also pins the service ≡
// RunRows equivalence the in-process table relies on. Runtime is wall
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
	svc := serve.New(serve.Config{Workers: workers, Shards: 7})
	got, err := tableRows(context.Background(), svc, spec, opt, rc)
	if err != nil {
		t.Fatal(err)
	}

	if svc.Pool().C.Dispatched.Load() == 0 {
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

// rowsDigest hashes every reported field of a row set: Runtime is wall
// clock and Insert holds in-process-only diagnostics, so both are zeroed.
func rowsDigest(t *testing.T, rows []expt.Row) string {
	t.Helper()
	for i := range rows {
		rows[i].Runtime, rows[i].Insert = 0, nil
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// TestRowsDigests pins table1's rows on the tiny generated circuit, fixed-n
// and adaptive, to digests recorded before the CLI moved onto the service
// surface (adaptive re-recorded when the stopping rule started crediting
// the strata): both expt.RunRows and tableRows over the in-process server
// the CLI builds must reproduce them.
func TestRowsDigests(t *testing.T) {
	b, spec, opt := tinyBench(t)
	svc := serve.New(serve.Config{MaxBenches: 1, MaxPopulationMB: 1})
	cases := []struct {
		name string
		rc   expt.RowConfig
		want string
	}{
		{"fixed", expt.RowConfig{InsertSamples: 130, EvalSamples: 300, Seed: 5}, "55915c38d0a60de7445918e4b0b86a2b9af57f3b2b4647487a738e28fc22ff25"},
		{"adaptive", expt.RowConfig{InsertSamples: 130, EvalSamples: 2000, Seed: 5, Eps: 0.05, Conf: 0.9}, "a16014f4ecc258c02a55186acb1879c7df3e26685e50fdb41064b790ec186460"},
	}
	for _, tc := range cases {
		rows, err := expt.RunRows(b, expt.Targets, tc.rc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rowsDigest(t, rows); got != tc.want {
			t.Errorf("%s: RunRows digest %s, want %s", tc.name, got, tc.want)
		}
		if rows, err = tableRows(context.Background(), svc, spec, opt, tc.rc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rowsDigest(t, rows); got != tc.want {
			t.Errorf("%s: tableRows digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
