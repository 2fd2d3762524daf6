// Command yieldeval measures the yield of a circuit at a sweep of clock
// periods, with and without buffer insertion, and compares against the
// baseline strategies (every-FF, top-k criticality, random-k). It answers
// "where does the paper's method sit between no tuning and unlimited
// tuning?" for any circuit.
//
// A run is the service's three calls — Prepare, Insert, Yield — on a
// serve.Service: an in-process serve.Server by default, sharding its
// sample loops over the -workers daemons if given, or a serve.Client for
// the bufinsd daemon at -server. The same deterministic code runs on the
// same seeds either way, so the output is byte-identical. All (period,
// strategy) queries go in one Yield request, answered from one pass that
// hands each fresh chip to every strategy's sweep evaluator: a 10-period ×
// 4-strategy sweep costs one chip population, not forty.
//
// In-process runs follow the daemon's request semantics: -seed 0 is seed
// 0, -samples 0 is an error, and at most 2²⁰ insertion samples, 2²⁴ eval
// chips and 2²⁵ eval chips × sweeps are accepted. ^C cancels -server and
// -workers runs promptly; an in-process insertion finishes first.
//
// With -eps the evaluation is sequential: chips arrive in escalating waves
// until every reported yield is known to ±eps at the -conf confidence level
// (valid under optional stopping), with -eval as the sample cap. Every
// mode runs the identical wave schedule, and -eps 0 is exactly the
// fixed-n pass.
//
// Usage:
//
//	yieldeval -preset s13207 -samples 1000 -eval 4000
//	yieldeval -preset s9234 -periods 10     # fine period sweep, one insertion
//	yieldeval -preset s9234 -eps 0.005      # adaptive: stop at ±0.5 points
//	yieldeval -preset s9234 -server http://127.0.0.1:8077
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/insertion"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tabular"
)

// fatalf is the single failure path: message to stderr, non-zero exit, so
// scripts (and the CI smoke test) can trust the exit code.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "yieldeval: "+format+"\n", args...)
	os.Exit(1)
}

// options collects the flag values so the whole run is a pure function of
// them (main_test drives run directly).
type options struct {
	preset, bench string
	samples       int
	evalN         int
	seed          uint64
	periods       int
	planFile      string
	server        string
	workers       string
	shards        int

	// Adaptive precision: eps > 0 evaluates sequentially (escalating waves,
	// stopping once every reported yield is known to ±eps at confidence
	// conf) with evalN as the cap. eps == 0 is the exact fixed-n pass.
	eps  float64
	conf float64

	// Dispatch-plane tuning for -workers mode (zero values take the
	// shard.Options defaults).
	rangeTimeout time.Duration
	retries      int
	hedge        float64

	ctx context.Context
}

func main() {
	var o options
	flag.StringVar(&o.preset, "preset", "s9234", "paper benchmark circuit")
	flag.StringVar(&o.bench, "bench", "", ".bench netlist file (overrides -preset)")
	flag.IntVar(&o.samples, "samples", 1000, "insertion samples")
	flag.IntVar(&o.evalN, "eval", 4000, "fresh chips per yield measurement")
	flag.Uint64Var(&o.seed, "seed", 0xF00D, "insertion seed")
	flag.IntVar(&o.periods, "periods", 0, "sweep this many periods across [µT, µT+2σ] with one insertion at µT+σ (0 = classic three-target table)")
	flag.Float64Var(&o.eps, "eps", 0, "adaptive precision: stop sampling once every reported yield is known to ±eps (0 = exact -eval chips)")
	flag.Float64Var(&o.conf, "conf", 0, "adaptive confidence level (0 = 0.95; only with -eps)")
	flag.StringVar(&o.planFile, "plan", "", "evaluate a saved buffer plan (JSON from bufins -saveplan) instead of running the flow")
	flag.StringVar(&o.server, "server", "", "bufinsd base URL: run prepare/insert/yield in the daemon instead of in-process")
	flag.StringVar(&o.workers, "workers", "", "comma-separated shard-worker bufinsd URLs: shard the sample loops across them (coordinating from this process)")
	flag.IntVar(&o.shards, "shards", 0, "k-ranges per sharded pass (0 = 4 per worker)")
	flag.DurationVar(&o.rangeTimeout, "range-timeout", 0, "per-attempt deadline for one sharded range (0 = transport timeout only)")
	flag.IntVar(&o.retries, "retries", 0, "worker attempts per range before in-process fallback (0 = default 4)")
	flag.Float64Var(&o.hedge, "hedge", 0, "hedge stragglers outstanding this many multiples of the mean range latency (0 = default 3, negative disables)")
	flag.Parse()
	if o.server != "" && o.workers != "" {
		fatalf("-server and -workers are mutually exclusive (point -workers at worker daemons and coordinate locally, or let one -server daemon coordinate)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o.ctx = ctx
	if err := run(o, os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

// origCell and tunedCell render one sweep point of one strategy as a table
// cell: the exact percent for fixed-n runs, estimate±half-width (both in
// percent) for adaptive ones.
func origCell(r serve.YieldResult, si, pi int) any {
	if len(r.Adaptive) > 0 {
		p := r.Adaptive[si].Original[pi]
		return fmt.Sprintf("%.2f±%.2f", p.Estimate*100, p.HalfWidth*100)
	}
	return r.Reports[si].Original[pi].Percent()
}

func tunedCell(r serve.YieldResult, si, pi int) any {
	if len(r.Adaptive) > 0 {
		p := r.Adaptive[si].Tuned[pi]
		return fmt.Sprintf("%.2f±%.2f", p.Estimate*100, p.HalfWidth*100)
	}
	return r.Reports[si].Tuned[pi].Percent()
}

// adaptiveFooter summarizes the shared wave loop of an adaptive run (empty
// for fixed-n runs). Every query of a batch shares the loop, so the counts
// are read off the first adaptive report.
func adaptiveFooter(results []serve.YieldResult, evalN int) string {
	for _, r := range results {
		for _, rep := range r.Adaptive {
			return fmt.Sprintf("adaptive: ±%g at %.0f%% confidence used %d/%d chips in %d waves (met=%v)",
				rep.Eps, rep.Conf*100, rep.SamplesUsed, evalN, rep.Waves, rep.Met)
		}
	}
	return ""
}

// strategySeed is the fixed randk seed of the comparison set.
const strategySeed = 5

func run(o options, out io.Writer) error {
	se, err := newSession(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, se.prep.Summary)
	fmt.Fprintln(out)
	switch {
	case o.planFile != "":
		return runPlanMode(se, o, out)
	case o.periods > 0:
		return runSweepMode(se, o, out)
	}
	return runClassicMode(se, o, out)
}

// runPlanMode evaluates a saved plan at its own target period.
func runPlanMode(se *session, o options, out io.Writer) error {
	f, err := os.Open(o.planFile)
	if err != nil {
		return err
	}
	plan, err := insertion.LoadPlan(f)
	f.Close()
	if err != nil {
		return err
	}
	res, err := se.evaluate([]serve.YieldQuery{{Plan: *plan}}, o.evalN, o.seed+0x1000)
	if err != nil {
		return err
	}
	if len(res[0].Adaptive) > 0 {
		a := res[0].Adaptive[0]
		yo, y := a.Original[0], a.Tuned[0]
		fmt.Fprintf(out, "plan %q (%d buffers) at T=%.1f ps:\n",
			o.planFile, len(plan.Groups), plan.T)
		fmt.Fprintf(out, "  Yo = %6.2f ± %.2f %%\n  Y  = %6.2f ± %.2f %%\n  Yi = %+6.2f points\n",
			yo.Estimate*100, yo.HalfWidth*100, y.Estimate*100, y.HalfWidth*100,
			(y.Estimate-yo.Estimate)*100)
		fmt.Fprintln(out, adaptiveFooter(res, o.evalN))
		return nil
	}
	rep := res[0].Reports[0].At(0)
	fmt.Fprintf(out, "plan %q (%d buffers) at T=%.1f ps over %d chips:\n",
		o.planFile, len(plan.Groups), plan.T, o.evalN)
	fmt.Fprintf(out, "  Yo = %6.2f %%\n  Y  = %6.2f %%\n  Yi = %+6.2f points\n",
		rep.Original.Percent(), rep.Tuned.Percent(), rep.Improvement())
	return nil
}

// runClassicMode reproduces the three-target strategy table: one insertion
// per target, every (target, strategy) yield from one shared pass.
func runClassicMode(se *session, o options, out io.Writer) error {
	type targetRow struct {
		k, T float64
		nb   int
	}
	var rows []targetRow
	var queries []serve.YieldQuery
	for _, k := range []float64{0, 1, 2} {
		plan, err := se.insert(k, o.samples, o.seed)
		if err != nil {
			return err
		}
		rows = append(rows, targetRow{k: k, T: plan.T, nb: len(plan.Groups)})
		queries = append(queries, serve.YieldQuery{Plan: plan, Strategies: true, StrategySeed: strategySeed})
	}
	results, err := se.evaluate(queries, o.evalN, o.seed+0x1000)
	if err != nil {
		return err
	}
	header := []string{"T", "Yo(%)", "Nb"}
	for _, name := range results[0].Names {
		header = append(header, name+" Y(%)")
	}
	tb := tabular.New(header...)
	tb.SetTitle("Yield vs strategy (equal buffer budget for topk/randk):")
	for i, row := range rows {
		cells := []any{fmt.Sprintf("%.1f (µ+%0.0fσ)", row.T, row.k),
			origCell(results[i], 0, 0), row.nb}
		for si := range results[i].Names {
			cells = append(cells, tunedCell(results[i], si, 0))
		}
		tb.AddRowf(cells...)
	}
	fmt.Fprintln(out, tb)
	if f := adaptiveFooter(results, o.evalN); f != "" {
		fmt.Fprintln(out, f)
	}
	return nil
}

// runSweepMode runs the insertion once at µT+σ and evaluates every
// strategy across a fine period sweep in a single chip-realization pass.
func runSweepMode(se *session, o options, out io.Writer) error {
	plan, err := se.insert(1, o.samples, o.seed)
	if err != nil {
		return err
	}
	Ts := make([]float64, o.periods)
	if o.periods == 1 {
		Ts[0] = plan.T // single-point sweep: just the insertion target
	} else {
		lo, hi := se.targetPeriod(0), se.targetPeriod(2)
		for i := range Ts {
			Ts[i] = lo + (hi-lo)*float64(i)/float64(o.periods-1)
		}
	}
	results, err := se.evaluate([]serve.YieldQuery{{Plan: plan, Periods: Ts, Strategies: true, StrategySeed: strategySeed}}, o.evalN, o.seed+0x1000)
	if err != nil {
		return err
	}
	res := results[0]
	header := []string{"T", "Yo(%)"}
	for _, name := range res.Names {
		header = append(header, name+" Y(%)")
	}
	tb := tabular.New(header...)
	tb.SetTitle(fmt.Sprintf("Yield sweep, %d periods, insertion at µT+σ (Nb=%d), %d chips realized once:",
		o.periods, len(plan.Groups), o.evalN))
	for i := range Ts {
		cells := []any{fmt.Sprintf("%.1f", Ts[i]), origCell(res, 0, i)}
		for si := range res.Names {
			cells = append(cells, tunedCell(res, si, i))
		}
		tb.AddRowf(cells...)
	}
	fmt.Fprintln(out, tb)
	if f := adaptiveFooter(results, o.evalN); f != "" {
		fmt.Fprintln(out, f)
	}
	return nil
}

// session is one prepared circuit on the service that runs it: a bufinsd
// daemon with -server, otherwise an in-process server coordinating the
// -workers shard daemons, if any. A one-shot run gains nothing from a
// population cache, so the in-process server streams every population.
type session struct {
	o    options
	svc  serve.Service
	spec serve.CircuitSpec
	prep *serve.PrepareResponse
}

func newSession(o options) (*session, error) {
	o.ctx = cmp.Or(o.ctx, context.Background())
	se := &session{o: o, spec: serve.CircuitSpec{Preset: o.preset}}
	if o.bench != "" {
		text, err := os.ReadFile(o.bench)
		if err != nil {
			return nil, err
		}
		// The path is the fallback name of a netlist without a "# name".
		se.spec = serve.CircuitSpec{Bench: string(text), BenchName: o.bench}
	}
	if o.server != "" {
		se.svc = serve.NewClient(o.server)
	} else {
		var workers []string // nil, not [""], without -workers
		if o.workers != "" {
			workers = strings.Split(o.workers, ",")
		}
		se.svc = serve.New(serve.Config{Workers: workers, Shards: o.shards, MaxPopulationMB: 1,
			Dispatch: shard.Options{RangeTimeout: o.rangeTimeout, MaxAttempts: o.retries, HedgeMultiple: o.hedge}})
	}
	var err error
	se.prep, err = se.svc.Prepare(o.ctx, serve.PrepareRequest{Circuit: se.spec})
	return se, err
}

// targetPeriod is µT + k·σT over the prepared distribution, the same
// arithmetic the service resolves a TargetK with.
func (se *session) targetPeriod(k float64) float64 { return se.prep.Mu + k*se.prep.Sigma }

// insert runs the flow at period µT + k·σT and returns the plan.
func (se *session) insert(k float64, samples int, seed uint64) (insertion.Plan, error) {
	resp, err := se.svc.Insert(se.o.ctx, serve.InsertRequest{Circuit: se.spec, TargetK: &k, Samples: samples, Seed: seed})
	if err != nil {
		return insertion.Plan{}, err
	}
	return resp.Plan, nil
}

// evaluate answers every query from one shared pass over evalN fresh chips
// of universe seed.
func (se *session) evaluate(queries []serve.YieldQuery, evalN int, seed uint64) ([]serve.YieldResult, error) {
	resp, err := se.svc.Yield(se.o.ctx, serve.YieldRequest{
		Circuit: se.spec, EvalSamples: evalN, Seed: seed,
		Eps: se.o.eps, Conf: se.o.conf, Queries: queries,
	})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}
