// Command table1 regenerates the paper's Table I: for each benchmark
// circuit and each clock-period target (µT, µT+σT, µT+2σT) it runs the
// sampling-based insertion flow and reports the buffer count Nb, average
// range Ab, yields Yo/Y/Yi and the flow runtime.
//
// The paper uses 10 000 insertion samples; the default here is 1000 for a
// laptop-scale run — pass -samples 10000 to match the paper exactly.
//
// With -server the preparation, insertion, and yield measurement run in a
// bufinsd daemon, so regenerating the table over an already-warm cache
// skips the per-circuit SSTA; the reported numbers are identical (the
// runtime column then measures the daemon-side flow time).
//
// Usage:
//
//	table1                         # all 8 circuits, moderate samples
//	table1 -circuits s9234,s13207 -samples 10000
//	table1 -csv > table1.csv
//	table1 -server http://127.0.0.1:8077
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tabular"
)

// fatalf is the single failure path: message to stderr, non-zero exit, so
// scripts can trust the exit code.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "table1: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		circuits = flag.String("circuits", "", "comma-separated benchmark names (default: all 8)")
		samples  = flag.Int("samples", 1000, "insertion Monte Carlo samples (paper: 10000)")
		evalN    = flag.Int("eval", 4000, "fresh chips per yield measurement")
		seed     = flag.Uint64("seed", 0xF00D, "insertion seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of the aligned table")
		eps      = flag.Float64("eps", 0, "adaptive yield precision: stop sampling once every row's yield is known to ±eps (0 = exact -eval chips)")
		conf     = flag.Float64("conf", 0, "adaptive confidence level (0 = 0.95; only with -eps)")
		server   = flag.String("server", "", "bufinsd base URL: run the flow in the daemon instead of in-process")
		workers  = flag.String("workers", "", "comma-separated shard-worker bufinsd URLs: shard the sample loops across them (coordinating from this process)")
		shards   = flag.Int("shards", 0, "k-ranges per sharded pass (0 = 4 per worker)")

		rangeTimeout = flag.Duration("range-timeout", 0, "per-attempt deadline for one sharded range (0 = transport timeout only)")
		retries      = flag.Int("retries", 0, "worker attempts per range before in-process fallback (0 = default 4)")
		hedge        = flag.Float64("hedge", 0, "hedge stragglers outstanding this many multiples of the mean range latency (0 = default 3, negative disables)")
	)
	flag.Parse()
	if *server != "" && *workers != "" {
		fatalf("-server and -workers are mutually exclusive")
	}

	names := make([]string, 0, len(gen.Presets))
	if *circuits == "" {
		for _, p := range gen.Presets {
			names = append(names, p.Name)
		}
	} else {
		for _, n := range strings.Split(*circuits, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	// One pool for the whole table: worker health and shard counters carry
	// across circuits (a worker that died on s9234 is not retried on every
	// later circuit — the per-pass probe revives it if it comes back).
	// Without -workers the pool is empty and every pass runs in-process.
	pool := shard.NewPoolWith(strings.Split(*workers, ","), shard.Options{
		RangeTimeout:  *rangeTimeout,
		MaxAttempts:   *retries,
		HedgeMultiple: *hedge,
	})

	// ctx covers every sharded pass of the table: ^C releases all in-flight
	// worker ranges instead of leaking minutes of solver work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tb := tabular.New("Circuit", "ns", "ng", "target", "T(ps)", "Nb", "Ab", "Yo(%)", "Y(%)", "Yi(%)", "T(s)")
	tb.SetTitle(fmt.Sprintf("Table I reproduction (%d insertion samples, %d eval chips)", *samples, *evalN))
	grand := time.Now()
	for _, name := range names {
		var rows []expt.Row
		var err error
		if *server != "" {
			rows, err = serverRows(*server, name, *samples, *evalN, *seed, *eps, *conf)
		} else {
			rows, err = localRows(ctx, pool, *shards, name, *samples, *evalN, *seed, *eps, *conf)
		}
		if err != nil {
			fatalf("%v", err)
		}
		for _, row := range rows {
			tb.AddRowf(row.Circuit, row.NS, row.NG, row.Target.String(),
				fmt.Sprintf("%.1f", row.T), row.Nb, row.Ab,
				row.Yo, row.Y, row.Yi, fmt.Sprintf("%.2f", row.Runtime.Seconds()))
			fmt.Fprintf(os.Stderr, "  %-10s Nb=%-3d Ab=%-6.2f Yi=%+6.2f  (%.1fs)\n",
				row.Target, row.Nb, row.Ab, row.Yi, row.Runtime.Seconds())
		}
		if len(rows) > 0 && rows[0].Adaptive != nil {
			// The three targets share one wave loop, so the counts are per
			// circuit, read off any row.
			rep := rows[0].Adaptive
			fmt.Fprintf(os.Stderr, "  adaptive: ±%g @ %.0f%% used %d/%d chips in %d waves (met=%v)\n",
				rep.Eps, rep.Conf*100, rep.SamplesUsed, *evalN, rep.Waves, rep.Met)
		}
	}
	if *csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Println(tb)
	}
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(grand))
}

// localRows prepares the bench in-process and runs the shared-evaluation
// row batch through a coordinator over pool. With workers, every Monte
// Carlo sample loop — the flow's step-1/B1/step-2 passes and the yield
// evaluation — shards across them; with an empty pool everything runs in
// this process. Rows are byte-identical either way (the reductions are
// shared code over merged k-indexed partials); only the runtime column
// reflects the distributed schedule.
func localRows(ctx context.Context, pool *shard.Pool, shards int, name string, samples, evalN int, seed uint64, eps, conf float64) ([]expt.Row, error) {
	b, err := expt.PreparePreset(name, expt.Options{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: µT=%.1f σT=%.1f (hold-viol rate %.4f)\n",
		name, b.Period.Mu, b.Period.Sigma, b.Period.HoldViolRate)
	coord := serve.NewCoordinator(pool, shards,
		serve.CircuitSpec{Preset: name}, expt.Options{},
		core.NewSystem(b), insertion.NewRunner(b.Graph, b.Placement))
	// RowConfig's hooks are ctx-free; bind the run context here so the
	// expt layer stays ignorant of the dispatch plane. One shared
	// evaluation pass measures all three targets' yields: the fresh-chip
	// population is realized once per circuit.
	return expt.RunRows(b, expt.Targets, expt.RowConfig{
		InsertSamples: samples,
		EvalSamples:   evalN,
		Seed:          seed,
		Eps:           eps,
		Conf:          conf,
		Pass:          func(cfg insertion.Config) insertion.PassFunc { return coord.InsertPass(ctx, cfg) },
		Tally:         coord.RowTally(ctx),
	})
}

// serverRows reproduces the same rows through a bufinsd daemon: one
// prepare, one insert per target, and a single batched yield request — the
// daemon realizes the evaluation population once per circuit, exactly like
// the in-process shared pass.
func serverRows(base, name string, samples, evalN int, seed uint64, eps, conf float64) ([]expt.Row, error) {
	cl := serve.NewClient(base)
	spec := serve.CircuitSpec{Preset: name}
	opt := expt.Options{}
	prep, err := cl.Prepare(serve.PrepareRequest{Circuit: spec, Options: opt})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: µT=%.1f σT=%.1f (hold-viol rate %.4f)\n",
		name, prep.Mu, prep.Sigma, prep.HoldViolRate)
	rows := make([]expt.Row, len(expt.Targets))
	yreq := serve.YieldRequest{
		Circuit: spec, Options: opt,
		EvalSamples: evalN, Seed: seed + 0x1000,
		Eps: eps, Conf: conf,
	}
	for i, target := range expt.Targets {
		k := float64(target)
		ins, err := cl.Insert(serve.InsertRequest{
			Circuit: spec, Options: opt,
			TargetK: &k, Samples: samples, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("insert %s@%v: %w", name, target, err)
		}
		rows[i] = expt.Row{
			Circuit: prep.Name,
			NS:      prep.NS,
			NG:      prep.NG,
			Target:  target,
			T:       ins.T,
			Nb:      ins.Nb,
			Ab:      ins.Ab,
			Runtime: time.Duration(ins.ElapsedMS) * time.Millisecond,
		}
		yreq.Queries = append(yreq.Queries, serve.YieldQuery{Plan: ins.Plan})
	}
	yld, err := cl.Yield(yreq)
	if err != nil {
		return nil, fmt.Errorf("yield %s: %w", name, err)
	}
	for i := range rows {
		if eps > 0 {
			rep := yld.Results[i].Adaptive[0]
			rows[i].Yo = rep.Original[0].Estimate * 100
			rows[i].Y = rep.Tuned[0].Estimate * 100
			rows[i].Yi = rows[i].Y - rows[i].Yo
			rows[i].Adaptive = &rep
			continue
		}
		rep := yld.Results[i].Reports[0].At(0)
		rows[i].Yo = rep.Original.Percent()
		rows[i].Y = rep.Tuned.Percent()
		rows[i].Yi = rep.Improvement()
		rows[i].YieldRep = rep
	}
	return rows, nil
}
