// Command table1 regenerates the paper's Table I: for each benchmark
// circuit and each clock-period target (µT, µT+σT, µT+2σT) it runs the
// sampling-based insertion flow and reports the buffer count Nb, average
// range Ab, yields Yo/Y/Yi and the flow runtime.
//
// The paper uses 10 000 insertion samples; the default here is 1000 for a
// laptop-scale run — pass -samples 10000 to match the paper exactly.
//
// Each circuit is the service's three calls — Prepare, Insert per target,
// one batched Yield — on a serve.Service: an in-process serve.Server by
// default, sharding its sample loops over the -workers daemons if given,
// or a serve.Client for the bufinsd daemon at -server, whose warm cache
// skips the per-circuit SSTA. The rows are identical either way; the
// runtime column is the service-side flow time.
//
// In-process runs follow the daemon's request semantics: -samples 0 is an
// error, and at most 2²⁰ insertion samples, 2²⁴ eval chips and 2²⁵ eval
// chips × sweeps are accepted. ^C cancels -server and -workers runs
// promptly; an in-process insertion finishes first.
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

	"repro/internal/expt"
	"repro/internal/gen"
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

	// One service for the whole table, so in-process worker health carries
	// across circuits (a worker that died on s9234 is not retried on every
	// later circuit — the per-pass probe revives it if it comes back). A
	// one-shot table gains nothing from the bench and population caches.
	var svc serve.Service
	if *server != "" {
		svc = serve.NewClient(*server)
	} else {
		var pool []string // nil, not [""], without -workers
		if *workers != "" {
			pool = strings.Split(*workers, ",")
		}
		svc = serve.New(serve.Config{Workers: pool, Shards: *shards, MaxBenches: 1, MaxPopulationMB: 1,
			Dispatch: shard.Options{RangeTimeout: *rangeTimeout, MaxAttempts: *retries, HedgeMultiple: *hedge}})
	}
	rc := expt.RowConfig{InsertSamples: *samples, EvalSamples: *evalN, Seed: *seed, Eps: *eps, Conf: *conf}

	// ctx covers every call of the table: ^C abandons a -server request and
	// releases all in-flight worker ranges instead of leaking minutes of
	// solver work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tb := tabular.New("Circuit", "ns", "ng", "target", "T(ps)", "Nb", "Ab", "Yo(%)", "Y(%)", "Yi(%)", "T(s)")
	tb.SetTitle(fmt.Sprintf("Table I reproduction (%d insertion samples, %d eval chips)", *samples, *evalN))
	grand := time.Now()
	for _, name := range names {
		rows, err := tableRows(ctx, svc, serve.CircuitSpec{Preset: name}, expt.Options{}, rc)
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

// tableRows computes one circuit's Table I rows through svc: one prepare,
// one insert per target, and a single batched yield request, so the
// evaluation population is realized once per circuit. The rows equal
// expt.RunRows(bench, expt.Targets, rc) on every field but Runtime (here
// the service-side flow time) and Insert (nil: only the plan crosses the
// service).
func tableRows(ctx context.Context, svc serve.Service, spec serve.CircuitSpec, opt expt.Options, rc expt.RowConfig) ([]expt.Row, error) {
	prep, err := svc.Prepare(ctx, serve.PrepareRequest{Circuit: spec, Options: opt})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: µT=%.1f σT=%.1f (hold-viol rate %.4f)\n",
		prep.Name, prep.Mu, prep.Sigma, prep.HoldViolRate)
	rows := make([]expt.Row, len(expt.Targets))
	yreq := serve.YieldRequest{
		Circuit: spec, Options: opt,
		EvalSamples: rc.EvalSamples, Seed: rc.Seed + 0x1000,
		Eps: rc.Eps, Conf: rc.Conf,
	}
	for i, target := range expt.Targets {
		k := float64(target)
		ins, err := svc.Insert(ctx, serve.InsertRequest{
			Circuit: spec, Options: opt,
			TargetK: &k, Samples: rc.InsertSamples, Seed: rc.Seed,
			MaxBuffers: rc.MaxBuffers, Workers: rc.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("insert %s@%v: %w", prep.Name, target, err)
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
	yld, err := svc.Yield(ctx, yreq)
	if err != nil {
		return nil, fmt.Errorf("yield %s: %w", prep.Name, err)
	}
	for i := range rows {
		if rc.Eps > 0 {
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
