package main

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/expt"
	"repro/internal/serve"
	"repro/internal/timing"
)

// serveYieldBlock is one block of serve_yield ops, shuffled per block by
// the seed: fixed-n plan-only sweeps (three per plan), strategies sweeps
// (two per plan of the first circuit) and adaptive queries (one per plan).
// A fixed block keeps every run's mix and per-plan share the same.
func serveYieldBlock(nPlans, nFirst int) []yieldOp {
	var ops []yieldOp
	for p := 0; p < nPlans; p++ {
		for k := 0; k < 3; k++ {
			ops = append(ops, yieldOp{kind: "yield", plan: p})
		}
		ops = append(ops, yieldOp{kind: "adaptive", plan: p})
	}
	for p := 0; p < nFirst; p++ {
		ops = append(ops, yieldOp{kind: "strategies", plan: p}, yieldOp{kind: "strategies", plan: p})
	}
	return ops
}

// yieldOp is one generated serve_yield op.
type yieldOp struct {
	kind string
	plan int
	univ uint64
}

// popPattern is each circuit's universe access pattern: three hot
// universes then the next of the cold ones, so against the server's
// four-entry population LRU exactly three of four accesses hit.
func popPattern(k int, hot, cold []uint64) uint64 {
	if j := k % (len(hot) + 1); j < len(hot) {
		return hot[j]
	}
	return cold[k/(len(hot)+1)%len(cold)]
}

// adaptiveUniverses are the adaptive queries' universes. They are the same
// in every run: how many waves an adaptive query takes depends on its
// universe, and adaptive queries are a large share of the run's time.
var adaptiveUniverses = []uint64{0xADA1, 0xADA2}

// Plans are made at set-up with fixed insertion seeds, so every run queries
// the same plans; the seed argument picks the op order.
const planSeed = 11

// serveYieldWL is a warm server answering only /v1/yield, driven by one
// closed-loop client. Each circuit has more evaluation universes than the
// server's population cache holds (serve.Config.MaxPopulations, 4), so the
// cache both hits and misses.
type serveYieldWL struct {
	seed      uint64
	presets   []string
	planK     []float64
	planN     int
	n, adaptN int
	eps       float64
	hot, cold []uint64 // fixed-n and strategies universes (see popPattern)

	s     *served
	plans []planAt
	book  *yieldBook

	mu     sync.Mutex
	ops    []yieldOp
	access map[string]int // per circuit: population accesses generated so far
	before map[string]float64
}

func newServeYield(seed uint64, tiny bool) *serveYieldWL {
	w := &serveYieldWL{seed: seed, presets: []string{"s9234", "s13207"}, planK: []float64{0, 1},
		planN: 300, n: 1500, adaptN: 16000, eps: 0.02}
	if tiny {
		w.presets, w.planK, w.planN, w.n, w.adaptN, w.eps = []string{"s9234"}, []float64{0}, 40, 200, 2000, 0.05
	}
	w.hot, w.cold = yieldUniverses[:3], yieldUniverses[3:]
	return w
}

// yieldUniverses are the fixed-n and strategies universes, the same in
// every run like adaptiveUniverses: a sweep's cost depends on how many of
// its universe's chips need tuning, so universes drawn from the seed would
// make some seeds' runs cost more than others. The seed orders the ops.
var yieldUniverses = []uint64{0x10A1, 0x10A2, 0x10A3, 0x10B1, 0x10B2, 0x10B3}

func (w *serveYieldWL) cycle() int { return len(serveYieldBlock(len(w.plans), len(w.planK))) }

func (w *serveYieldWL) setup(ctx context.Context) error {
	w.s.close()
	s, err := startServed(serve.Config{MaxPopulationMB: populationMB})
	if err != nil {
		return err
	}
	w.s, w.plans, w.book, w.ops, w.access = s, nil, newYieldBook(), nil, map[string]int{}
	for _, p := range w.presets {
		if _, err := post(ctx, s.cl, s.url("/v1/prepare"), serve.PrepareRequest{Circuit: serve.CircuitSpec{Preset: p}}); err != nil {
			return err
		}
	}
	for _, p := range w.presets {
		for _, k := range w.planK {
			pl, err := insertPlan(ctx, s, p, k, w.planN, planSeed)
			if err != nil {
				return err
			}
			w.plans = append(w.plans, pl)
		}
	}
	return nil
}

func (w *serveYieldWL) close() { w.s.close() }

// startTrace prepares the in-process graphs that traced ops replay on, up
// to four per class and circuit.
func (w *serveYieldWL) startTrace(ctx context.Context) error {
	gs, err := w.graphs()
	if err != nil {
		return err
	}
	w.book.startReplays(gs, 4)
	w.before, err = scrape(ctx, w.s.cl, w.s.lb.URL)
	return err
}

// opAt returns op i, generating the sequence up to i: blocks of
// serveYieldBlock shuffled by the seed, each circuit's fixed-n and
// strategies ops walking its popPattern, adaptive ops alternating over
// their universes.
func (w *serveYieldWL) opAt(i int) yieldOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.ops) <= i {
		block := serveYieldBlock(len(w.plans), len(w.planK))
		newRand(w.seed, 1<<32+uint64(len(w.ops))).Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, op := range block {
			preset := w.plans[op.plan].preset
			if op.kind == "adaptive" {
				op.univ = adaptiveUniverses[w.access["adaptive"+preset]%len(adaptiveUniverses)]
				w.access["adaptive"+preset]++
			} else {
				op.univ = popPattern(w.access[preset], w.hot, w.cold)
				w.access[preset]++
			}
			w.ops = append(w.ops, op)
		}
	}
	return w.ops[i]
}

// request builds op i's /v1/yield request and returns the index of the
// plan's own period in the sweep (−1 when the op records no gain).
func (w *serveYieldWL) request(op yieldOp) (serve.YieldRequest, int) {
	pl := w.plans[op.plan]
	req := serve.YieldRequest{Circuit: serve.CircuitSpec{Preset: pl.preset}, EvalSamples: w.n, Seed: op.univ}
	switch op.kind {
	case "yield":
		req.Queries = []serve.YieldQuery{{Plan: pl.plan, Periods: sweepAround(pl.plan.T, []float64{0.97, 0.985, 1, 1.015, 1.03})}}
		return req, 2
	case "strategies":
		req.Queries = []serve.YieldQuery{{Plan: pl.plan, Strategies: true, StrategySeed: 7}}
	default:
		req.EvalSamples, req.Eps = w.adaptN, w.eps
		req.Queries = []serve.YieldQuery{{Plan: pl.plan}}
	}
	return req, -1
}

func (w *serveYieldWL) op(ctx context.Context, i int, tr *tracer) opResult {
	op := w.opAt(i)
	req, idx := w.request(op)
	class := op.kind
	if op.kind != "adaptive" {
		// Hot universes stay in the population cache; every cold one
		// misses it (popPattern).
		if slices.Contains(w.hot, req.Seed) {
			class += "/hit"
		} else {
			class += "/miss"
		}
	}
	return w.book.do(ctx, w.s, i, op.kind, class, req, idx, tr, tr.root("op."+op.kind))
}

// graphs prepares every preset in-process, as the server does.
func (w *serveYieldWL) graphs() (map[string]*timing.Graph, error) {
	out := map[string]*timing.Graph{}
	for _, p := range w.presets {
		b, err := expt.PreparePreset(p, expt.Options{})
		if err != nil {
			return nil, err
		}
		out[p] = b.Graph
	}
	return out, nil
}

func (w *serveYieldWL) verify(ctx context.Context) (map[int]string, error) {
	bad := map[int]string{}
	gs, err := w.graphs()
	if err != nil {
		return nil, err
	}
	if err := w.book.verify(ctx, gs, bad); err != nil {
		return nil, err
	}
	m, err := scrape(ctx, w.s.cl, w.s.lb.URL)
	if err != nil {
		return nil, err
	}
	if m["bufinsd_rejected_total"] != 0 {
		return bad, fmt.Errorf("server rejected %v requests", m["bufinsd_rejected_total"])
	}
	return bad, nil
}

// quality: the mean plan yield gain over the distinct fixed-n queries, and
// the set-up plans' mean buffer count and range.
func (w *serveYieldWL) quality() (yi, nb, ab float64) {
	var nbs, abs []float64
	for _, p := range w.plans {
		nbs = append(nbs, float64(p.nb))
		abs = append(abs, p.ab)
	}
	return w.book.meanGain(), mean(nbs), mean(abs)
}

func (w *serveYieldWL) layers(ctx context.Context, tr *tracer, ops []opResult) (map[string]float64, error) {
	out := map[string]float64{}
	after, err := scrape(ctx, w.s.cl, w.s.lb.URL)
	if err != nil {
		return nil, err
	}
	serveLayers(w.before, after, out)
	opLayers(ops, out)
	spanLayers(tr, &passStats{}, out)
	out["trace.coverage_frac"] = replayCoverage(ops, coveredMS(tr, w.book.roots), func(i int) string { return w.book.recs[i].class })
	return out, nil
}
