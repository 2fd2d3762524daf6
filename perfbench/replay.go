package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/baseline"
	"repro/internal/cells"
	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/ssta"
	"repro/internal/timing"
	"repro/internal/variation"
	"repro/internal/yield"
)

// This file times the public steps behind each op kind, one span per layer
// call. The flow workload's traced ops run through these steps directly;
// the serving workloads replay a traced op's steps in-process after the
// timed window to attribute the server's share of the op to layers.

// passStats accumulates the insertion passes seen by tracedPass.
type passStats struct {
	mu                 sync.Mutex
	floating, fixed    int // samples solved per formulation
	violating, rescued int // step-1 samples with NK>0, and those also feasible
	step1Samples       int
}

// tracedPass returns an insertion.Config.Pass that executes each pass of
// the flow in-process through Runner.PassRange over [0, Samples), inside a
// span named for the pass: insertion.step1 (floating), insertion.rerun
// (the §III-B1 fixed pass, whose spec carries no centers) or
// insertion.step2. cfg is the flow's configuration before Pass is set.
func tracedPass(parent *span, r *insertion.Runner, cfg insertion.Config, st *passStats) insertion.PassFunc {
	return func(spec insertion.PassSpec) ([]insertion.SampleOutcome, error) {
		name := "insertion.step1"
		if spec.Kind == insertion.PassFixed {
			name = "insertion.step2"
			if spec.Center == nil {
				name = "insertion.rerun"
			}
		}
		s := parent.child(name)
		out, err := r.PassRange(context.Background(), cfg, spec, 0, cfg.Samples)
		s.end()
		if err != nil {
			return nil, err
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if spec.Kind == insertion.PassFloating {
			st.floating += len(out)
			st.step1Samples += len(out)
			for _, o := range out {
				if o.NK > 0 {
					st.violating++
					if o.Feasible {
						st.rescued++
					}
				}
			}
		} else {
			st.fixed += len(out)
		}
		return out, nil
	}
}

// runTraced runs the insertion flow on r inside an insertion.run span whose
// children are the flow's passes; the span's self time is the fold (reduce,
// prune, windows, grouping).
func runTraced(parent *span, r *insertion.Runner, cfg insertion.Config, st *passStats) (*insertion.Result, error) {
	s := parent.child("insertion.run")
	defer s.end()
	base := cfg
	cfg.Pass = tracedPass(s, r, base, st)
	return r.Run(cfg)
}

// expandQueries mirrors serve's query expansion: each query becomes the
// plan's sweep, or the baseline.Strategies comparison set around it. The
// results carry each query's sweep names, for the reports to fill in.
func expandQueries(g *timing.Graph, queries []serve.YieldQuery) ([]serve.YieldResult, []*yield.SweepEvaluator, error) {
	results := make([]serve.YieldResult, len(queries))
	var sweeps []*yield.SweepEvaluator
	for qi, q := range queries {
		if err := q.Plan.Validate(); err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", qi, err)
		}
		Ts := q.Periods
		if len(Ts) == 0 {
			Ts = []float64{q.Plan.T}
		}
		set := []baseline.Named{{Name: "plan", Groups: q.Plan.Groups}}
		if q.Strategies {
			set = baseline.Strategies(g, q.Plan.Spec, q.Plan.T, q.Plan.Groups, q.StrategySeed)
		}
		for _, st := range set {
			ev, err := yield.NewEvaluator(g, q.Plan.Spec, st.Groups)
			if err != nil {
				return nil, nil, err
			}
			sw, err := yield.NewSweepEvaluator(ev, Ts)
			if err != nil {
				return nil, nil, err
			}
			results[qi].Names = append(results[qi].Names, st.Name)
			sweeps = append(sweeps, sw)
		}
	}
	return results, sweeps, nil
}

// populationMB is serve.Config.MaxPopulationMB of the serve_yield server,
// set explicitly (to serve's default) so the replay knows which universes
// the server caches and which it streams from the engine.
const populationMB = 256

// replayYield replays one /v1/yield request: yield.expand, then either
// yield.adaptive or (mc.materialize when the server's population cache
// missed) yield.sweep. It returns the results as the server reports them.
func replayYield(sp *span, g *timing.Graph, req serve.YieldRequest, popMiss bool) ([]serve.YieldResult, error) {
	s := sp.child("yield.expand")
	results, sweeps, err := expandQueries(g, req.Queries)
	s.end()
	if err != nil {
		return nil, err
	}
	eng := mc.New(g, req.Seed)
	i := 0
	if req.Eps > 0 {
		s = sp.child("yield.adaptive")
		reps, err := yield.EvaluateManyAdaptive(eng, req.EvalSamples, yield.Precision{Eps: req.Eps, Conf: req.Conf}, sweeps...)
		s.end()
		if err != nil {
			return nil, err
		}
		for qi := range results {
			for range results[qi].Names {
				results[qi].Adaptive = append(results[qi].Adaptive, reps[i])
				i++
			}
		}
		return results, nil
	}
	var src mc.Source = eng
	if eng.PopulationBytes(req.EvalSamples) <= populationMB<<20 {
		if popMiss {
			s = sp.child("mc.materialize")
		}
		src = eng.Materialize(req.EvalSamples)
		if popMiss {
			s.end()
		}
	}
	s = sp.child("yield.sweep")
	reps := yield.EvaluateMany(src, req.EvalSamples, sweeps...)
	s.end()
	for qi := range results {
		for range results[qi].Names {
			results[qi].Reports = append(results[qi].Reports, reps[i])
			i++
		}
	}
	return results, nil
}

// replayPrepare replays expt.Prepare's public steps for the zero Options
// (the paper's configuration) under one span per step, and returns the
// bench they build.
func replayPrepare(sp *span, spec serve.CircuitSpec) (*expt.Bench, error) {
	opt := expt.Options{}.Canonical()
	s := sp.child("gen.build")
	c, err := spec.Build()
	s.end()
	if err != nil {
		return nil, err
	}
	s = sp.child("ssta.new")
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	s.end()
	if err != nil {
		return nil, err
	}
	s = sp.child("timing.build")
	g := timing.Build(a, nil)
	s.end()
	s = sp.child("timing.skew")
	g = g.WithSkew(g.HoldSafeSkews(timing.SkewSigma(g.Pairs, opt.SkewFrac), opt.Seed+1))
	s.end()
	s = sp.child("placement.grid")
	pl := placement.Grid(g.NS, placement.AdjFromPairs(g.NS, g.FFPairIDs()))
	s.end()
	s = sp.child("mc.period")
	ps := mc.New(g, opt.Seed+2).PeriodDistribution(opt.PeriodSamples)
	s.end()
	return &expt.Bench{Name: c.Name, Circuit: c, Graph: g, Placement: pl, Period: ps, Analyzer: a, Opt: opt}, nil
}

// replayStoreHit replays a prepare answered from the persistent store: the
// circuit is rebuilt and the bench restored from a snapshot of b.
func replayStoreHit(sp *span, spec serve.CircuitSpec, b *expt.Bench) (*expt.Bench, error) {
	snap, err := b.Snapshot()
	if err != nil {
		return nil, err
	}
	s := sp.child("gen.build")
	c, err := spec.Build()
	s.end()
	if err != nil {
		return nil, err
	}
	s = sp.child("store.restore")
	defer s.end()
	return expt.RestoreBench(c, expt.Options{}, snap)
}

// samePeriod reports whether a replayed period distribution is the one a
// prepare or what-if response reported.
func samePeriod(ps mc.PeriodStats, p serve.PrepareResponse) bool {
	return ps.Mu == p.Mu && ps.Sigma == p.Sigma && ps.HoldViolRate == p.HoldViolRate
}

// replaySnapshot times the snapshot a store-backed server writes after a
// cold prepare.
func replaySnapshot(sp *span, b *expt.Bench) error {
	s := sp.child("store.snapshot")
	_, err := b.Snapshot()
	s.end()
	return err
}

// storeFile returns the path of a circuit's entry in a serve store
// directory (serve names entries by the SHA-256 of the bench cache key).
func storeFile(dir string, spec serve.CircuitSpec) (string, error) {
	ck, err := spec.Key()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(ck + "|" + expt.Options{}.Key()))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".bench"), nil
}

// replayStoreRead times reading and checksumming a store entry, the disk
// half of a store hit. The entry must exist: the server wrote it on the
// circuit's cold prepare.
func replayStoreRead(sp *span, path string) error {
	s := sp.child("store.read")
	defer s.end()
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store entry: %w", err)
	}
	sha256.Sum256(data)
	return nil
}

// replayStoreWrite times writing a store entry of the same bytes to a
// temporary file in scratch and renaming it, the disk half of a cold
// prepare on a store-backed server. The entry must exist.
func replayStoreWrite(sp *span, path, scratch string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store entry: %w", err)
	}
	s := sp.child("store.write")
	defer s.end()
	f, err := os.CreateTemp(scratch, "replay-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name() + ".bench")
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), f.Name()+".bench")
}

// replayWhatIf replays expt.Bench.WhatIf's public steps: fork the prepared
// analyzer, repropagate the edited cones, rebuild the pair graph at the
// prepared skews and re-sample the period distribution.
func replayWhatIf(sp *span, b *expt.Bench, edits []expt.Edit) (mc.PeriodStats, error) {
	s := sp.child("ssta.fork")
	a := b.Analyzer.Fork()
	s.end()
	s = sp.child("ssta.cone")
	nodes := make([]int, len(edits))
	for i, e := range edits {
		id, ok := b.Circuit.Index(e.Node)
		if !ok {
			s.end()
			return mc.PeriodStats{}, fmt.Errorf("unknown node %q", e.Node)
		}
		a.AddDelay(id, e.DeltaPS)
		nodes[i] = id
	}
	pairs := a.RepropagateCone(nodes...)
	s.end()
	s = sp.child("timing.buildpairs")
	g := timing.BuildPairs(a, pairs, b.Graph.Skew)
	s.end()
	s = sp.child("mc.period_whatif")
	ps := mc.New(g, b.Opt.Seed+2).PeriodDistribution(b.Opt.PeriodSamples)
	s.end()
	return ps, nil
}

// spanLayers turns the tracer's per-name self times into the per-layer
// metrics that come from spans. Pass spans are reported per flow run
// (insertion.rerun is 0 for a run that skipped it); every other layer is
// the mean per call.
func spanLayers(tr *tracer, st *passStats, out map[string]float64) {
	self, _ := tr.selfTimes()
	runs := 0
	if l := self["insertion.run"]; l != nil {
		runs = l.n
		out["insertion.fold_ms"] = l.meanSelfMS()
	}
	perRun := func(name string) float64 {
		l := self[name]
		if l == nil || runs == 0 {
			return 0
		}
		return l.selfUS / float64(runs) / 1000
	}
	out["insertion.step1_ms"] = perRun("insertion.step1")
	out["insertion.rerun_ms"] = perRun("insertion.rerun")
	out["insertion.step2_ms"] = perRun("insertion.step2")
	st.mu.Lock()
	if st.floating > 0 && self["insertion.step1"] != nil {
		out["insertion.solve_us_per_sample.floating"] = self["insertion.step1"].selfUS / float64(st.floating)
	}
	if st.fixed > 0 {
		fixedUS := 0.0
		for _, n := range []string{"insertion.rerun", "insertion.step2"} {
			if l := self[n]; l != nil {
				fixedUS += l.selfUS
			}
		}
		out["insertion.solve_us_per_sample.fixed"] = fixedUS / float64(st.fixed)
	}
	if st.step1Samples > 0 {
		out["insertion.violating_frac"] = float64(st.violating) / float64(st.step1Samples)
	}
	if st.violating > 0 {
		out["insertion.rescued_frac"] = float64(st.rescued) / float64(st.violating)
	}
	st.mu.Unlock()
	for _, name := range []string{"yield.expand", "mc.materialize", "yield.sweep", "yield.adaptive",
		"gen.build", "ssta.new", "timing.build", "timing.skew", "placement.grid", "mc.period",
		"ssta.fork", "timing.buildpairs", "mc.period_whatif", "store.snapshot", "store.restore", "store.read", "store.write"} {
		out[name+"_ms"] = self[name].meanSelfMS()
	}
	out["ssta.cone_us"] = self["ssta.cone"].meanSelfMS() * 1000
}

// serveLayers fills the per-layer metrics that come from a server's
// /metrics counters, as deltas over the traced window (store.invalid and
// serve.rejected are totals over the whole run).
func serveLayers(before, after map[string]float64, out map[string]float64) {
	cache := func(name string) float64 {
		return ratio(delta(before, after, `bufinsd_cache_hits_total{cache="`+name+`"}`),
			delta(before, after, `bufinsd_cache_misses_total{cache="`+name+`"}`))
	}
	out["serve.bench_hit_ratio"] = cache("bench")
	out["serve.plan_hit_ratio"] = cache("plan")
	out["serve.pop_hit_ratio"] = cache("population")
	out["store.hit_ratio"] = ratio(delta(before, after, "bufinsd_store_hits_total"), delta(before, after, "bufinsd_store_misses_total"))
	out["store.invalid"] = after["bufinsd_store_invalid_total"]
	out["serve.rejected"] = after["bufinsd_rejected_total"]
	if req := delta(before, after, `bufinsd_adaptive_samples_total{kind="requested"}`); req > 0 {
		out["yield.adaptive_used_frac"] = delta(before, after, `bufinsd_adaptive_samples_total{kind="used"}`) / req
	}
	early := delta(before, after, `bufinsd_adaptive_queries_total{result="early_stop"}`)
	capped := delta(before, after, `bufinsd_adaptive_queries_total{result="cap"}`)
	if early+capped > 0 {
		out["yield.adaptive_waves"] = delta(before, after, "bufinsd_adaptive_waves_total") / (early + capped)
		out["yield.adaptive_met_frac"] = early / (early + capped)
	}
	out["shard.redispatched"] = delta(before, after, `bufinsd_shard_ranges_total{kind="redispatched"}`)
	out["shard.local_ranges"] = delta(before, after, `bufinsd_shard_ranges_total{kind="local"}`)
	if launched := delta(before, after, `bufinsd_shard_hedges_total{result="launched"}`); launched > 0 {
		out["shard.hedge_waste_frac"] = (launched - delta(before, after, `bufinsd_shard_hedges_total{result="won"}`)) / launched
	}
}

// opLayers fills the client-side serving figures of the traced ops: the
// median of client latency minus the server's elapsed_ms (HTTP, JSON and
// admission) and the mean response size.
func opLayers(ops []opResult, out map[string]float64) {
	var over, kb []float64
	for _, op := range ops {
		if op.hasServer {
			over = append(over, ms(op.wall)-op.serverMS)
		}
		if op.respBytes > 0 {
			kb = append(kb, float64(op.respBytes)/1024)
		}
	}
	out["serve.overhead_ms_p50"] = quantile(over, 0.5)
	out["serve.resp_kb"] = mean(kb)
}

// replayCoverage attributes the traced ops' wall time, per op class
// (classOf): the client-side overhead (all of an op's time when the server
// answered from a cache) plus the server's compute as far as the in-process
// replays account for it. Server and replay times are summed over the
// class's replayed ops before they are compared, so timing noise in single
// ops does not count as missing layers. replayMS maps a replayed op's index
// to its replay's layer time; ops with server work but no replay are left
// out. Each class's coverage is printed to stderr.
func replayCoverage(ops []opResult, replayMS map[int]float64, classOf func(int) string) float64 {
	type acc struct{ wall, overhead, server, replay float64 }
	classes := map[string]*acc{}
	for _, op := range ops {
		a := classes[classOf(op.idx)]
		if a == nil {
			a = &acc{}
			classes[classOf(op.idx)] = a
		}
		w := ms(op.wall)
		if !op.hasServer {
			a.wall += w
			a.overhead += w
			continue
		}
		if r, ok := replayMS[op.idx]; ok {
			a.wall += w
			a.overhead += w - op.serverMS
			a.server += op.serverMS
			a.replay += r
		}
	}
	names := make([]string, 0, len(classes))
	for k := range classes {
		names = append(names, k)
	}
	sort.Strings(names)
	var wall, covered float64
	for _, k := range names {
		a := classes[k]
		c := a.overhead + min(a.server, a.replay)
		wall += a.wall
		covered += c
		if a.wall > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: coverage %-16s %6.3f of %9.1f ms\n", k, c/a.wall, a.wall)
		}
	}
	if wall == 0 {
		return 0
	}
	return covered / wall
}
