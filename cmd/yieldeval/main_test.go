package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckt"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/serve"
)

// writeTinyBench generates a small circuit and writes it as a .bench file,
// so both backends load the same netlist the way a user would.
func writeTinyBench(t *testing.T) string {
	t.Helper()
	c, err := gen.Generate(gen.Config{Name: "tiny", NumFFs: 16, NumGates: 70, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.bench")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckt.WriteBench(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func startDaemon(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// requireIdentical runs the same query locally and through the daemon and
// demands byte-identical stdout — the acceptance bar for -server mode.
func requireIdentical(t *testing.T, o options, url string) {
	t.Helper()
	var local, remote bytes.Buffer
	if err := run(o, &local); err != nil {
		t.Fatalf("local run: %v", err)
	}
	o.server = url
	if err := run(o, &remote); err != nil {
		t.Fatalf("server run: %v", err)
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatalf("server output differs from local output:\n--- local ---\n%s--- server ---\n%s",
			local.String(), remote.String())
	}
	if local.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestServerModeClassicByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	url := startDaemon(t)
	requireIdentical(t, options{bench: bench, samples: 120, evalN: 300, seed: 5}, url)
}

// TestServerModeNoNameComment: a netlist without a "# name" comment falls
// back to the file path as circuit name on both paths (the client passes
// BenchName), so output stays byte-identical.
func TestServerModeNoNameComment(t *testing.T) {
	c, err := gen.Generate(gen.Config{Name: "tiny", NumFFs: 16, NumGates: 70, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	text, err := ckt.BenchString(c)
	if err != nil {
		t.Fatal(err)
	}
	var stripped []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			stripped = append(stripped, line)
		}
	}
	path := filepath.Join(t.TempDir(), "anon.bench")
	if err := os.WriteFile(path, []byte(strings.Join(stripped, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	url := startDaemon(t)
	requireIdentical(t, options{bench: path, samples: 100, evalN: 200, seed: 5, periods: 1}, url)
}

func TestServerModeSweepByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	url := startDaemon(t)
	requireIdentical(t, options{bench: bench, samples: 120, evalN: 300, seed: 5, periods: 4}, url)
}

func TestServerModePlanByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	url := startDaemon(t)
	requireIdentical(t, options{bench: bench, evalN: 300, seed: 5, planFile: savePlan(t, bench)}, url)
}

// requireIdenticalSharded runs the same query in-process and with the
// sample loops sharded across worker daemons, demanding byte-identical
// stdout — the acceptance bar for -workers mode.
func requireIdenticalSharded(t *testing.T, o options, workers []string, shards int) {
	t.Helper()
	var local, sharded bytes.Buffer
	if err := run(o, &local); err != nil {
		t.Fatalf("local run: %v", err)
	}
	o.workers = strings.Join(workers, ",")
	o.shards = shards
	if err := run(o, &sharded); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if !bytes.Equal(local.Bytes(), sharded.Bytes()) {
		t.Fatalf("sharded output differs from local output:\n--- local ---\n%s--- sharded ---\n%s",
			local.String(), sharded.String())
	}
	if local.Len() == 0 {
		t.Fatal("empty output")
	}
}

// TestWorkersModeClassicByteIdentical: a 2-worker sharded classic run —
// uneven 7-range splits included — reproduces the single-process stdout
// byte for byte.
func TestWorkersModeClassicByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	workers := []string{startDaemon(t), startDaemon(t)}
	requireIdenticalSharded(t, options{bench: bench, samples: 120, evalN: 300, seed: 5}, workers, 7)
}

func TestWorkersModeSweepByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	workers := []string{startDaemon(t), startDaemon(t)}
	requireIdenticalSharded(t, options{bench: bench, samples: 120, evalN: 300, seed: 5, periods: 4}, workers, 7)
}

// TestAdaptiveEpsZeroMatchesFixed: -eps 0 is the exact fixed-n path — its
// stdout is byte-identical to a run without the flag, on every backend.
func TestAdaptiveEpsZeroMatchesFixed(t *testing.T) {
	bench := writeTinyBench(t)
	fixed := options{bench: bench, samples: 120, evalN: 300, seed: 5}
	var want bytes.Buffer
	if err := run(fixed, &want); err != nil {
		t.Fatal(err)
	}
	zero := fixed
	zero.eps, zero.conf = 0, 0
	var got bytes.Buffer
	if err := run(zero, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("-eps 0 output differs from fixed-n output:\n--- eps 0 ---\n%s--- fixed ---\n%s",
			got.String(), want.String())
	}
	requireIdentical(t, zero, startDaemon(t))
	requireIdenticalSharded(t, zero, []string{startDaemon(t), startDaemon(t)}, 7)
}

// TestAdaptiveByteIdenticalAcrossBackends: the adaptive wave schedule is a
// pure function of the merged tallies, so in-process, -server, and -workers
// runs print the identical table, samples-used footer included.
func TestAdaptiveByteIdenticalAcrossBackends(t *testing.T) {
	bench := writeTinyBench(t)
	o := options{bench: bench, samples: 120, evalN: 2000, seed: 5, eps: 0.05, conf: 0.9}
	var local bytes.Buffer
	if err := run(o, &local); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(local.String(), "adaptive:") || !strings.Contains(local.String(), "waves") {
		t.Fatalf("adaptive run missing the samples-used footer:\n%s", local.String())
	}
	requireIdentical(t, o, startDaemon(t))
	requireIdenticalSharded(t, o, []string{startDaemon(t), startDaemon(t)}, 7)
}

// savePlan writes the µT+σ plan of the bench the way bufins -saveplan
// would, for the -plan option set.
func savePlan(t *testing.T, bench string) string {
	t.Helper()
	f, err := os.Open(bench)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.FromBench(f, bench, expt.Options{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Insert(sys.TargetPeriod(1), insertion.Config{Samples: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	pf, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	plan := res.Plan(sys.Name())
	if err := plan.Save(pf); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDigests pins run()'s stdout for the classic, sweep, plan and
// adaptive option sets to digests recorded before the CLI moved onto the
// service surface; sweep was re-recorded when support projection replaced
// the per-sample concentration ILP (its plan moved where supports tie), and
// again when the projection took the componentwise-least optimum; adaptive
// was re-recorded when the stopping rule started crediting the strata.
// The plan file's temp path is printed, so it is replaced by a fixed token
// before hashing.
func TestRunDigests(t *testing.T) {
	bench := writeTinyBench(t)
	plan := savePlan(t, bench)
	cases := []struct {
		name string
		o    options
		want string
	}{
		{"classic", options{bench: bench, samples: 120, evalN: 300, seed: 5}, "3aa05301c9e7eca7b5a2aa0a6a4a874b776c62e2a7c3be98862ef2427ac82618"},
		{"sweep", options{bench: bench, samples: 120, evalN: 300, seed: 5, periods: 4}, "e9bebdee89c05a33ebf9846ed6c784f8f93b5bb863c9e932b0816a6683750b33"},
		{"plan", options{bench: bench, evalN: 300, seed: 5, planFile: plan}, "5ab834e2d4e2d7cb53538001ba7306d5d4e1ef6bf1f2ce56f26d25a3f79b28d7"},
		{"adaptive", options{bench: bench, samples: 120, evalN: 2000, seed: 5, eps: 0.05, conf: 0.9}, "9fbc4f4cf21301c759b44d28cdbed59e601d9a2965e12612b83bcceda97835a9"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if err := run(tc.o, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		text := bytes.ReplaceAll(out.Bytes(), []byte(plan), []byte("PLAN"))
		if got := fmt.Sprintf("%x", sha256.Sum256(text)); got != tc.want {
			t.Errorf("%s: stdout digest %s, want %s\n%s", tc.name, got, tc.want, text)
		}
	}
}
