package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/yield"
)

// flowSeeds is the flow workload's fixed pool of insertion seeds. A run
// cycles through all of them in a seed-shuffled order, so every run
// measures the same row-sets and the quality means are comparable across
// runs. (0xF00D, the RowConfig default, is left out: at µT it alone takes
// several times a typical row-set.)
var flowSeeds = []uint64{101, 202, 303, 404, 505, 606}

// flowWL is the paper's Table-I flow in-process: one op is a row-set,
// expt.RunRows on s9234 for all three expt.Targets at one insertion seed.
// Its traced ops run the same steps through the public seams instead
// (insertion.Config.Pass over Runner.PassRange, yield.NewEvaluator,
// yield.EvaluateMany), one span per layer.
type flowWL struct {
	insert, eval int
	seeds        []uint64
	bench        *expt.Bench
	st           passStats

	mu   sync.Mutex
	recs map[int]flowRec
}

// flowRec is one recorded row-set.
type flowRec struct {
	seed   uint64
	traced bool
	rows   []rowSum
}

// rowSum is the checked part of one Table-I row.
type rowSum struct {
	Nb   int
	Ab   float64
	Yo   float64
	Y    float64
	Yi   float64
	Plan insertion.Plan
}

func newFlow(seed uint64, tiny bool) *flowWL {
	f := &flowWL{insert: 150, eval: 750, recs: map[int]flowRec{}}
	if tiny {
		f.insert, f.eval = 40, 200
	}
	f.seeds = append([]uint64(nil), flowSeeds...)
	r := newRand(seed, 0)
	r.Shuffle(len(f.seeds), func(a, b int) { f.seeds[a], f.seeds[b] = f.seeds[b], f.seeds[a] })
	return f
}

func (f *flowWL) cycle() int { return len(f.seeds) }

func (f *flowWL) setup(ctx context.Context) error {
	b, err := expt.PreparePreset("s9234", expt.Options{})
	if err != nil {
		return err
	}
	f.bench = b
	return nil
}

func (f *flowWL) close() {}

func (f *flowWL) startTrace(ctx context.Context) error { return nil }

func (f *flowWL) op(ctx context.Context, i int, tr *tracer) opResult {
	seed := f.seeds[i%len(f.seeds)]
	var (
		rows []rowSum
		err  error
	)
	if tr == nil {
		rows, err = f.runRows(seed)
	} else {
		root := tr.root("op.rowset")
		rows, err = f.stepwise(root, seed, &f.st)
		root.end()
	}
	f.mu.Lock()
	f.recs[i] = flowRec{seed: seed, traced: tr != nil, rows: rows}
	f.mu.Unlock()
	return opResult{kind: "rowset", key: fmt.Sprint(seed), err: err}
}

// runRows is the measured op: one expt.RunRows row-set.
func (f *flowWL) runRows(seed uint64) ([]rowSum, error) {
	rows, err := expt.RunRows(f.bench, expt.Targets, expt.RowConfig{InsertSamples: f.insert, EvalSamples: f.eval, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]rowSum, len(rows))
	for i, r := range rows {
		out[i] = rowSum{Nb: r.Nb, Ab: r.Ab, Yo: r.Yo, Y: r.Y, Yi: r.Yi, Plan: r.Insert.Plan(f.bench.Name)}
	}
	return out, nil
}

// stepwise computes the same row-set as RunRows from its public steps,
// with a span per layer under root (nil root = untraced).
func (f *flowWL) stepwise(root *span, seed uint64, st *passStats) ([]rowSum, error) {
	b := f.bench
	rows := make([]rowSum, len(expt.Targets))
	sweeps := make([]*yield.SweepEvaluator, len(expt.Targets))
	for i, t := range expt.Targets {
		T := b.PeriodFor(t)
		res, err := runTraced(root, insertion.NewRunner(b.Graph, b.Placement), insertion.Config{T: T, Samples: f.insert, Seed: seed}, st)
		if err != nil {
			return nil, err
		}
		s := root.child("yield.expand")
		ev, err := yield.NewEvaluator(b.Graph, res.Cfg.Spec, res.Groups)
		if err == nil {
			sweeps[i], err = yield.NewSweepEvaluator(ev, []float64{T})
		}
		s.end()
		if err != nil {
			return nil, err
		}
		rows[i] = rowSum{Nb: res.NumPhysicalBuffers(), Ab: res.AvgRangeSteps(), Plan: res.Plan(b.Name)}
	}
	s := root.child("yield.sweep")
	reps := yield.EvaluateMany(mc.New(b.Graph, seed+0x1000), f.eval, sweeps...)
	s.end()
	for i, rep := range reps {
		r := rep.At(0)
		rows[i].Yo = r.Original.Percent()
		rows[i].Y = r.Tuned.Percent()
		rows[i].Yi = r.Improvement()
	}
	return rows, nil
}

// verify checks that every plan validates, that every row-set of one seed
// is identical, and that RunRows and the stepwise path agree on each seed.
func (f *flowWL) verify(ctx context.Context) (map[int]string, error) {
	bad := map[int]string{}
	bySeed := map[uint64][]int{}
	for i, rec := range f.recs {
		bySeed[rec.seed] = append(bySeed[rec.seed], i)
	}
	for seed, idx := range bySeed {
		var ref []byte
		var anyRun, anyStep bool
		for _, i := range idx {
			rec := f.recs[i]
			anyStep = anyStep || rec.traced
			anyRun = anyRun || !rec.traced
			for _, r := range rec.rows {
				if err := r.Plan.Validate(); err != nil {
					bad[i] = err.Error()
				}
			}
			data, err := json.Marshal(rec.rows)
			if err != nil {
				return nil, err
			}
			if ref == nil {
				ref = data
			} else if string(data) != string(ref) {
				bad[i] = fmt.Sprintf("seed %d: row-set differs from an earlier row-set of the same seed", seed)
			}
		}
		var others [][]rowSum
		if anyRun {
			rows, err := f.stepwise(nil, seed, &passStats{})
			if err != nil {
				return nil, err
			}
			others = append(others, rows)
		}
		if anyStep {
			rows, err := f.runRows(seed)
			if err != nil {
				return nil, err
			}
			others = append(others, rows)
		}
		for _, rows := range others {
			data, err := json.Marshal(rows)
			if err != nil {
				return nil, err
			}
			if string(data) != string(ref) {
				for _, i := range idx {
					bad[i] = fmt.Sprintf("seed %d: RunRows and the stepwise flow disagree", seed)
				}
			}
		}
	}
	return bad, nil
}

// quality averages Yi, Nb and Ab over the distinct seeds' row-sets.
func (f *flowWL) quality() (yi, nb, ab float64) {
	seen := map[uint64]bool{}
	var yis, nbs, abs []float64
	for _, rec := range f.recs {
		if seen[rec.seed] || len(rec.rows) == 0 {
			continue
		}
		seen[rec.seed] = true
		for _, r := range rec.rows {
			yis = append(yis, r.Yi)
			nbs = append(nbs, float64(r.Nb))
			abs = append(abs, r.Ab)
		}
	}
	return mean(yis), mean(nbs), mean(abs)
}

func (f *flowWL) layers(ctx context.Context, tr *tracer, ops []opResult) (map[string]float64, error) {
	out := map[string]float64{}
	spanLayers(tr, &f.st, out)
	out["trace.coverage_frac"] = tr.rootCoverage("op.rowset")
	return out, nil
}
