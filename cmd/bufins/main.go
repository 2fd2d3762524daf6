// Command bufins runs the paper's sampling-based buffer-insertion flow on a
// circuit and reports the chosen buffer locations, windows, final ranges
// and groups.
//
// Usage:
//
//	bufins -preset s9234 -target mu -samples 2000
//	bufins -bench my.bench -period 2200 -samples 1000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/tabular"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bufins: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the report to out,
// so main_test drives it directly.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bufins", flag.ContinueOnError)
	var (
		preset   = fs.String("preset", "", "paper benchmark circuit")
		bench    = fs.String("bench", "", ".bench netlist file")
		target   = fs.String("target", "mu", "period target: mu | mu+s | mu+2s (ignored with -period)")
		period   = fs.Float64("period", 0, "explicit target clock period in ps")
		samples  = fs.Int("samples", 2000, "insertion Monte Carlo samples (paper: 10000)")
		seed     = fs.Uint64("seed", 0xF00D, "sampling seed")
		maxBuf   = fs.Int("maxbuffers", 0, "cap on physical buffers (0 = none)")
		evalN    = fs.Int("eval", 4000, "fresh chips for yield measurement (0 = skip)")
		savePlan = fs.String("saveplan", "", "write the buffer plan as JSON to this file")
		topCrit  = fs.Int("critical", 5, "print the k most failure-prone register pairs (0 = skip)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, err := loadSystem(*preset, *bench)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, sys.Summary())

	T := *period
	if T == 0 {
		switch *target {
		case "mu":
			T = sys.TargetPeriod(0)
		case "mu+s":
			T = sys.TargetPeriod(1)
		case "mu+2s":
			T = sys.TargetPeriod(2)
		default:
			return fmt.Errorf("unknown target %q", *target)
		}
	}
	fmt.Fprintf(out, "target period: %.1f ps (buffer range %.1f ps, 20 steps)\n\n", T, T/8)

	if *topCrit > 0 {
		tc := tabular.New("launch FF", "capture FF", "mean slack", "sigma", "P(fail)")
		tc.SetTitle(fmt.Sprintf("%d most failure-prone register pairs at %.1f ps:", *topCrit, T))
		for _, r := range sys.Graph().CriticalPairs(T, *topCrit) {
			tc.AddRowf(r.Launch, r.Capture, r.MeanSlack, r.StdSlack, fmt.Sprintf("%.4f", r.FailProb))
		}
		fmt.Fprintln(out, tc)
	}

	res, err := sys.Insert(T, insertion.Config{Samples: *samples, Seed: *seed, MaxBuffers: *maxBuf})
	if err != nil {
		return err
	}
	if *savePlan != "" {
		f, err := os.Create(*savePlan)
		if err != nil {
			return err
		}
		plan := res.Plan(sys.Name())
		if err := plan.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "plan written to %s\n\n", *savePlan)
	}

	tb := tabular.New("FF", "window lo", "range lo", "range hi", "steps", "uses", "avg")
	tb.SetTitle(fmt.Sprintf("Per-FF buffers (%d):", len(res.Buffers)))
	for _, b := range res.Buffers {
		tb.AddRowf(b.FF, b.Lower, b.Lo, b.Hi, b.RangeSteps, b.Uses, b.Avg)
	}
	fmt.Fprintln(out, tb)

	tg := tabular.New("group", "FFs", "lo", "hi", "steps", "uses")
	tg.SetTitle(fmt.Sprintf("Physical buffers after grouping (Nb=%d, Ab=%.2f steps):",
		res.NumPhysicalBuffers(), res.AvgRangeSteps()))
	for i, g := range res.Groups {
		tg.AddRowf(i, fmt.Sprint(g.FFs), g.Lo, g.Hi, g.RangeSteps(res.Cfg.Spec.Step()), g.Uses)
	}
	fmt.Fprintln(out, tg)

	st := res.Stats
	fmt.Fprintf(out, "flow: %d samples, %d clean, %d unfixable (step1), %d self-loop, missing=%.4f skippedB1=%v\n",
		st.Samples, st.ZeroViolation, st.InfeasibleStep1, st.SelfLoopFailures, st.MissingFrac, st.SkippedB1)

	if *evalN > 0 {
		rep, err := sys.MeasureYield(res, T, *evalN, 0)
		if err != nil {
			return err
		}
		lo, hi := rep.Tuned.WilsonCI(0.95)
		fmt.Fprintf(out, "\nyield at %.1f ps over %d fresh chips:\n", T, *evalN)
		fmt.Fprintf(out, "  Yo = %6.2f %%\n  Y  = %6.2f %%  (95%% CI %.2f–%.2f)\n  Yi = %+6.2f points\n",
			rep.Original.Percent(), rep.Tuned.Percent(), 100*lo, 100*hi, rep.Improvement())
	}
	return nil
}

func loadSystem(preset, bench string) (*core.System, error) {
	switch {
	case preset != "":
		return core.FromPreset(preset, expt.Options{})
	case bench != "":
		f, err := os.Open(bench)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.FromBench(f, bench, expt.Options{})
	default:
		return nil, fmt.Errorf("need -preset or -bench")
	}
}
