// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload for a fixed time, checks every answer it got
// against the in-process path outside the timed window, and prints one JSON
// result line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// end_to_end). With -trace 1 the run splits its time into an untraced and a
// traced half, both with one client, and reports the per-layer metrics
// (BENCHMARK.json per_layer) instead; the spans are written to -out.
// README.md lists the workloads and what each metric is expected to move.
//
// Run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opResult is one completed operation of the timed loop.
type opResult struct {
	idx  int
	kind string
	wall time.Duration
	// serverMS is the server-side compute time the response reported
	// (elapsed_ms) when the server computed the answer fresh; hasServer is
	// false for in-process ops and for cache hits, whose elapsed_ms describes
	// an earlier request.
	serverMS  float64
	hasServer bool
	respBytes int
	// key names a group of ops that take about the same time (the flow's
	// insertion seed, a serving op's class); it pairs traced and untraced
	// ops.
	key string
	// untimed is time the op call spent after the op itself completed (a
	// traced op's in-process replay); loop leaves it out of wall and of the
	// window.
	untimed time.Duration
	err     error
}

// workload is one named traffic mix.
type workload interface {
	// setup builds the workload's state from scratch, releasing whatever an
	// earlier call built.
	setup(ctx context.Context) error
	// startTrace runs just before the traced phase: it snapshots counters
	// the per-layer figures are deltas of, and readies the in-process state
	// traced ops replay on.
	startTrace(ctx context.Context) error
	// op runs operation i of the seed's generated sequence; tr is nil when
	// the op is not traced. A traced serving op may replay its public steps
	// in-process right after it completes, as the result's untimed part.
	op(ctx context.Context, i int, tr *tracer) opResult
	// verify checks every answer recorded by op and returns the failed ops
	// by index with the reason, plus an error for a failed global check.
	verify(ctx context.Context) (map[int]string, error)
	// quality returns the mean yield gain (percentage points), physical
	// buffer count and buffer range (steps) of the answers the run produced.
	quality() (yi, nb, ab float64)
	// layers runs the traced run's attribution outside the timed window
	// (/metrics deltas, wire timing, replay spans) over the traced ops and
	// returns per-layer values, including trace.coverage_frac.
	layers(ctx context.Context, tr *tracer, ops []opResult) (map[string]float64, error)
	// cycle is the length of the sequence's blocks: every block of cycle
	// ops carries the workload's whole mix, so blocks cost about the same.
	// The untraced figures cover whole blocks only.
	cycle() int
	close()
}

// A run builds its state at least minSetups times and until minSetupTime
// has passed; setup_s is the median, so one slow build does not move it.
const (
	minSetups    = 5
	maxSetups    = 25
	minSetupTime = 1500 * time.Millisecond
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: flow, serve_yield, serve_prepare_insert or sharded")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed issues the same ops")
		seconds = flag.Float64("seconds", 20, "measured time")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for traces and temporary stores")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	w, err := newWorkload(*name, *seed, false, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := measure(context.Background(), w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false, *out)
	w.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func newWorkload(name string, seed uint64, tiny bool, out string) (workload, error) {
	switch name {
	case "flow":
		return newFlow(seed, tiny), nil
	case "serve_yield":
		return newServeYield(seed, tiny), nil
	case "serve_prepare_insert":
		return newPrepareInsert(seed, tiny, out), nil
	case "sharded":
		return newSharded(seed, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want flow, serve_yield, serve_prepare_insert or sharded)", name)
}

// measure sets the workload up, drives it for d, verifies every answer and
// assembles the result.
func measure(ctx context.Context, w workload, name string, seed uint64, d time.Duration, traced, tiny bool, out string) (*result, error) {
	// Untraced runs time the speed probe (see prober) after every set-up
	// and every block of ops; probes are its times in ms.
	var (
		pr     *prober
		probes []float64
	)
	if !traced {
		var err error
		if pr, err = newProber(); err != nil {
			return nil, err
		}
		defer pr.close()
	}
	var setups []float64
	for begin := time.Now(); len(setups) < maxSetups; {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if pr != nil {
			probes = append(probes, pr.run())
		}
		if tiny || len(setups) >= minSetups && time.Since(begin) >= minSetupTime {
			break
		}
	}
	res := &result{Metrics: map[string]metric{}}
	var ops []opResult
	if !traced {
		ops = loop(ctx, w, d, nil, 0, pr, &probes)
		yi, nb, ab := w.quality()
		c := min(w.cycle(), len(ops))
		timed := ops[:len(ops)/c*c]
		reportShares(timed)
		lat := latencies(timed, "")
		setup, rate, p50, p90 := quantile(setups, 0.5), blockRate(timed, c), quantile(lat, 0.5), quantile(lat, 0.9)
		probeMS := quantile(probes, 0.5)
		scale := math.Pow(probeRefMS/probeMS, probeExp)
		fmt.Fprintf(os.Stderr, "perfbench: raw: setup %.4f s, %.3f ops/s, op p50 %.2f ms, p90 %.2f ms; probe median %.2f ms over %d probes, so times scale by %.3f\n",
			setup, rate, p50, p90, probeMS, len(probes), scale)
		res.Metrics = map[string]metric{
			"setup_s":       {setup * scale, "s"},
			"ops_per_s":     {rate / scale, "1/s"},
			"op_ms_p50":     {p50 * scale, "ms"},
			"op_ms_p90":     {p90 * scale, "ms"},
			"peak_rss_mb":   {peakRSSMB() - probeBufBytes/(1<<20), "MB"},
			"yi_pts_mean":   {yi, "pts"},
			"nb_mean":       {nb, "count"},
			"ab_steps_mean": {ab, "steps"},
		}
	} else {
		half := d / 2
		opsA := loop(ctx, w, half, nil, 0, nil, nil)
		if err := w.startTrace(ctx); err != nil {
			return nil, err
		}
		tr := newTracer()
		opsB := loop(ctx, w, half, tr, len(opsA), nil, nil)
		ops = append(opsA, opsB...)
		layers, err := w.layers(ctx, tr, opsB)
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		layers["trace.overhead_frac"] = traceOverhead(opsA, opsB)
		for _, k := range opKinds {
			layers["op."+k+"_ms_p50"] = quantile(latencies(opsB, k), 0.5)
		}
		for _, pl := range perLayer {
			res.Metrics[pl.name] = metric{layers[pl.name], pl.unit}
		}
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	}
	bad, gerr := w.verify(ctx)
	if bad == nil {
		bad = map[int]string{}
	}
	res.Attempted = len(ops)
	for _, op := range ops {
		if op.err != nil {
			if _, ok := bad[op.idx]; !ok {
				bad[op.idx] = op.err.Error()
			}
		}
	}
	res.Failed = len(bad)
	res.Correct = res.Failed == 0 && gerr == nil && len(ops) > 0
	reportFailures(bad, gerr)
	return res, nil
}

// reportFailures prints the first few failure reasons to stderr.
func reportFailures(bad map[int]string, gerr error) {
	if gerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", gerr)
	}
	idx := make([]int, 0, len(bad))
	for i := range bad {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for n, i := range idx {
		if n == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed ops\n", len(idx)-n)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %s\n", i, bad[i])
	}
}

// reportShares prints each op kind's count, share of the summed op wall
// time and median wall time to stderr: the measured weight of each kind in
// the workload's mix.
func reportShares(ops []opResult) {
	all := sum(latencies(ops, ""))
	for _, k := range opKinds {
		if lat := latencies(ops, k); len(lat) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: mix %-10s %4d ops, %5.1f%% of op time, median %.2f ms\n", k, len(lat), 100*sum(lat)/all, quantile(lat, 0.5))
		}
	}
}

// loop drives the workload in a closed loop with one client: it issues the
// next op only after the previous one completed, until d has passed. Op
// indexes continue from first, so a second phase issues the sequence's next
// ops. Ops' untimed parts (a traced op's replay) are left out of their wall
// time and of d. With pr non-nil, the speed probe runs after every block of
// ops, also left out of d, and its times are appended to probes.
func loop(ctx context.Context, w workload, d time.Duration, tr *tracer, first int, pr *prober, probes *[]float64) []opResult {
	var (
		ops     []opResult
		untimed time.Duration
	)
	start := time.Now()
	for i := first; time.Since(start)-untimed < d; i++ {
		t0 := time.Now()
		r := w.op(ctx, i, tr)
		r.idx = i
		r.wall = time.Since(t0) - r.untimed
		untimed += r.untimed
		ops = append(ops, r)
		if pr != nil && len(ops)%w.cycle() == 0 {
			t1 := time.Now()
			*probes = append(*probes, pr.run())
			untimed += time.Since(t1)
		}
	}
	return ops
}

// blockRate returns the ops per second of the run's median block of c ops,
// timing each block as the sum of its ops' wall times. A few seconds in
// which a shared machine runs slow move it less than they move the mean
// rate over the run.
func blockRate(ops []opResult, c int) float64 {
	var blocks []float64
	for b := 0; b+c <= len(ops); b += c {
		t := 0.0
		for _, op := range ops[b : b+c] {
			t += op.wall.Seconds()
		}
		blocks = append(blocks, t)
	}
	return float64(c) / quantile(blocks, 0.5)
}

// traceOverhead is the traced phase's slowdown against the untraced one:
// the traced ops' summed wall time over what the same ops took untraced
// (the untraced mean wall time of their key), minus 1. Ops are paired by
// key, so a different mix of inputs or cache hits in the two halves does
// not pass for tracing cost.
func traceOverhead(a, b []opResult) float64 {
	sum, n := map[string]float64{}, map[string]int{}
	for _, op := range a {
		sum[op.key] += ms(op.wall)
		n[op.key]++
	}
	var traced, untraced float64
	for _, op := range b {
		if n[op.key] > 0 {
			traced += ms(op.wall)
			untraced += sum[op.key] / float64(n[op.key])
		}
	}
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

// latencies returns the wall times in ms of the ops of one kind ("" = all).
func latencies(ops []opResult, kind string) []float64 {
	var out []float64
	for _, op := range ops {
		if kind == "" || op.kind == kind {
			out = append(out, ms(op.wall))
		}
	}
	return out
}
