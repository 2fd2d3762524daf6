package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/serve"
)

// prepareInsertMix is one block of serve_prepare_insert ops. Within a
// kind, ops follow a fixed pattern (prepareKinds; three fresh inserts to a
// repeat), so every block of 20 issues the same mix.
var prepareInsertMix = mix{{"prepare", 8}, {"whatif", 4}, {"insert", 8}}

// prepareKinds is the pattern of prepares: new circuits (cold prepares),
// recently introduced ones (bench LRU hits) and old ones, evicted from the
// LRU by then (store hits).
var prepareKinds = []string{"new", "new", "new", "recent", "recent", "recent", "old", "old"}

// preloaded is how many generated circuits set-up prepares, so that old
// prepares hit the store from the first block on. Recent prepares and
// what-ifs touch only the last four introduced circuits, and the m-th old
// prepare asks for circuit m, which no old prepare asked for before. By
// then at least preloaded−4 = 9 newer circuits have been introduced since
// anything last touched circuit m. Eight would evict it from the server's
// 8-entry bench LRU (serve.Config.MaxBenches); the ninth is a margin.
const preloaded = 13

// hotPreset is the circuit inserts run on; it stays hot in the bench LRU.
const hotPreset = "s9234"

// insertKs are the targets µT + k·σT of the fixed list of fresh insert
// pairs: pair m asks for insertKs[m%4] at seed insertSeed0+m.
var insertKs = []float64{0, 0.5, 1, 2}

// qualityPairs is how many of the first fresh insert pairs the quality
// means cover, so every run averages the same answers.
const qualityPairs = 8

// prepOp is one generated serve_prepare_insert op.
type prepOp struct {
	kind    string
	circuit int  // index into the generated circuit pool; -1 = hotPreset
	cold    bool // a prepare of a circuit no op asked for before
	edits   []expt.Edit
	pair    int // insert pair index
}

// prepRec is one recorded op's answer.
type prepRec struct {
	op    prepOp
	class string
	prep  serve.PrepareResponse
	ins   insertAnswer
}

// prepareInsertWL is the write path: one closed-loop client against a
// server with a persistent store, preparing generated circuits (more than
// the bench LRU holds, so prepares mix LRU hits, store hits and cold
// prepares), probing what-ifs on cached circuits and inserting at fresh
// (target, seed) pairs with small budgets plus a share of repeats that hit
// the plan cache.
type prepareInsertWL struct {
	seed        uint64
	out         string
	samples     int
	insertSeed0 uint64
	size        [2]int // base FF and gate counts of generated circuits

	s        *served
	storeDir string

	mu        sync.Mutex
	recs      map[int]prepRec
	before    map[string]float64
	passStats passStats

	// Replays of traced ops (see replayOp): in-process benches by circuit,
	// the hot preset's runner, replays so far per class, their root spans.
	benches map[int]*expt.Bench
	hot     *insertion.Runner
	replays map[string]int
	roots   map[int]*span
}

func newPrepareInsert(seed uint64, tiny bool, out string) *prepareInsertWL {
	w := &prepareInsertWL{seed: seed, out: out, samples: 100, insertSeed0: 5000, size: [2]int{100, 1200}}
	if tiny {
		w.samples, w.size = 30, [2]int{30, 200}
	}
	return w
}

func (w *prepareInsertWL) cycle() int { return prepareInsertMix.size() }

// circuit returns the spec of generated circuit j. Its size depends on j
// only, so circuit j costs about the same to prepare in every run; its
// topology comes from the workload seed.
func (w *prepareInsertWL) circuit(j int) serve.CircuitSpec {
	if j < 0 {
		return serve.CircuitSpec{Preset: hotPreset}
	}
	r := newRand(0, 1000+uint64(j))
	return serve.CircuitSpec{Gen: &gen.Config{
		Name:     fmt.Sprintf("pb%d", j),
		NumFFs:   w.size[0] + r.IntN(w.size[0]),
		NumGates: w.size[1] + r.IntN(w.size[1]*3/2),
		Seed:     newRand(w.seed, 1000+uint64(j)).Uint64(),
	}}
}

// numGates returns the gate count of a circuit spec.
func numGates(spec serve.CircuitSpec) int {
	if spec.Gen != nil {
		return spec.Gen.NumGates
	}
	p, _ := gen.PresetByName(spec.Preset)
	return p.Gates
}

func (w *prepareInsertWL) setup(ctx context.Context) error {
	w.s.close()
	w.removeStore()
	dir, err := os.MkdirTemp(w.out, "store-")
	if err != nil {
		return err
	}
	w.storeDir = dir
	s, err := startServed(serve.Config{StoreDir: dir})
	if err != nil {
		return err
	}
	w.s = s
	w.recs = map[int]prepRec{}
	prepare := func(c int) error {
		_, err := post(ctx, s.cl, s.url("/v1/prepare"), serve.PrepareRequest{Circuit: w.circuit(c)})
		return err
	}
	for c := 0; c < preloaded; c++ {
		if err := prepare(c); err != nil {
			return err
		}
	}
	// The hot preset comes last, so it starts in the LRU with the newest
	// preloaded circuits.
	return prepare(-1)
}

func (w *prepareInsertWL) removeStore() {
	if w.storeDir != "" {
		os.RemoveAll(w.storeDir)
		w.storeDir = ""
	}
}

func (w *prepareInsertWL) close() {
	w.s.close()
	w.removeStore()
}

// startTrace prepares the hot preset in-process for the inserts traced ops
// replay.
func (w *prepareInsertWL) startTrace(ctx context.Context) error {
	w.benches, w.replays, w.roots = map[int]*expt.Bench{}, map[string]int{}, map[int]*span{}
	b, err := w.bench(-1)
	if err != nil {
		return err
	}
	w.hot = insertion.NewRunner(b.Graph, b.Placement)
	w.before, err = scrape(ctx, w.s.cl, w.s.lb.URL)
	return err
}

// opAt returns op i. It is a pure function of the seed and i: the op's
// kind comes from the block shuffle, and its inputs from how many ops of
// each kind precede it.
func (w *prepareInsertWL) opAt(i int) prepOp {
	kind := blockKind(prepareInsertMix, w.seed, i)
	k := countBefore(prepareInsertMix, w.seed, i, kind)
	r := newRand(w.seed, 1<<34+uint64(i))
	op := prepOp{kind: kind, circuit: -1}
	// introduced counts the circuits set-up and the first k prepares brought
	// in; recent picks one of the last four.
	introduced := func(k int) int { return preloaded + prepared(k, "new") }
	recent := func(n int) int { return n - 1 - r.IntN(4) }
	switch kind {
	case "prepare":
		n := introduced(k)
		switch prepareKinds[k%len(prepareKinds)] {
		case "new":
			op.circuit, op.cold = n, true
		case "recent":
			op.circuit = recent(n)
		default:
			op.circuit = prepared(k, "old") // see preloaded
		}
	case "whatif":
		op.circuit = recent(introduced(countBefore(prepareInsertMix, w.seed, i, "prepare")))
		ng := numGates(w.circuit(op.circuit))
		for e := 0; e < 1+r.IntN(3); e++ {
			op.edits = append(op.edits, expt.Edit{Node: fmt.Sprintf("g%d", r.IntN(ng)), DeltaPS: float64(10+r.IntN(50)) / 2})
		}
	case "insert":
		fresh := k/4*3 + k%4
		if k%4 == 3 {
			op.pair = r.IntN(fresh)
		} else {
			op.pair = fresh
		}
	}
	return op
}

// prepared counts the prepares of one prepareKinds kind among the first k.
func prepared(k int, kind string) int {
	n := 0
	for j := 0; j < k; j++ {
		if prepareKinds[j%len(prepareKinds)] == kind {
			n++
		}
	}
	return n
}

// insertRequest is the /v1/insert request of a fresh-pair index.
func (w *prepareInsertWL) insertRequest(pair int) serve.InsertRequest {
	k := insertKs[pair%len(insertKs)]
	return serve.InsertRequest{Circuit: w.circuit(-1), TargetK: &k, Samples: w.samples, Seed: w.insertSeed0 + uint64(pair)}
}

func (w *prepareInsertWL) op(ctx context.Context, i int, tr *tracer) opResult {
	op := w.opAt(i)
	rec := prepRec{op: op}
	res := opResult{kind: op.kind}
	root := tr.root("op." + op.kind)
	var (
		data []byte
		err  error
	)
	switch op.kind {
	case "prepare", "whatif":
		data, err = postJSON(ctx, w.s.cl, w.s.url("/v1/prepare"), serve.PrepareRequest{Circuit: w.circuit(op.circuit), WhatIf: op.edits}, &rec.prep)
		switch {
		case op.kind == "whatif":
			rec.class, res.hasServer = "whatif", true
		case rec.prep.Cached:
			rec.class = "prepare/lru"
		case op.cold:
			rec.class, res.hasServer = "prepare/cold", true
		default:
			rec.class, res.hasServer = "prepare/store", true
		}
		res.serverMS = float64(rec.prep.ElapsedMS)
	case "insert":
		var resp serve.InsertResponse
		data, err = postJSON(ctx, w.s.cl, w.s.url("/v1/insert"), w.insertRequest(op.pair), &resp)
		rec.ins = insertAnswer{Plan: resp.Plan, T: resp.T, Nb: resp.Nb, Ab: resp.Ab, Stats: resp.Stats}
		rec.class = "insert/repeat"
		if !resp.Cached {
			rec.class, res.hasServer, res.serverMS = "insert/fresh", true, float64(resp.ElapsedMS)
		}
	}
	root.end()
	res.key, res.err, res.respBytes = rec.class, err, len(data)
	if err != nil {
		res.hasServer = false
		return res
	}
	w.mu.Lock()
	w.recs[i] = rec
	w.mu.Unlock()
	if tr != nil {
		t0 := time.Now()
		res.err = w.replayOp(tr, i, rec)
		res.untimed = time.Since(t0)
	}
	return res
}

// verify re-prepares each circuit in-process (one at a time) and checks
// every prepare, what-if and insert answer on it against the in-process
// answer, then checks that the store quarantined nothing.
func (w *prepareInsertWL) verify(ctx context.Context) (map[int]string, error) {
	bad := map[int]string{}
	byCirc := map[int][]int{}
	for i, rec := range w.recs {
		byCirc[rec.op.circuit] = append(byCirc[rec.op.circuit], i)
	}
	circs := make([]int, 0, len(byCirc))
	for c := range byCirc {
		circs = append(circs, c)
	}
	sort.Ints(circs)
	for _, c := range circs {
		spec := w.circuit(c)
		ckt, err := spec.Build()
		if err != nil {
			return nil, err
		}
		b, err := expt.Prepare(ckt, expt.Options{})
		if err != nil {
			return nil, err
		}
		key, err := spec.Key()
		if err != nil {
			return nil, err
		}
		base := serve.PrepareResponse{Key: key + "|" + expt.Options{}.Key(), Name: b.Name, Summary: core.NewSystem(b).Summary(),
			NS: b.Graph.NS, NG: b.Circuit.NumGates(), Mu: b.Period.Mu, Sigma: b.Period.Sigma, HoldViolRate: b.Period.HoldViolRate}
		var runner *insertion.Runner
		inserts := map[int]string{}
		for _, i := range byCirc[c] {
			rec := w.recs[i]
			switch rec.op.kind {
			case "prepare":
				got := rec.prep
				got.ElapsedMS, got.Cached = 0, false
				if got != base {
					bad[i] = "prepare" + mismatch
				}
			case "whatif":
				wr, err := b.WhatIf(rec.op.edits)
				if err != nil {
					return nil, err
				}
				want := base
				want.Mu, want.Sigma, want.HoldViolRate, want.WhatIf = wr.Period.Mu, wr.Period.Sigma, wr.Period.HoldViolRate, true
				got := rec.prep
				got.ElapsedMS, got.Cached = 0, false
				if got != want {
					bad[i] = "what-if" + mismatch
				}
			case "insert":
				if err := rec.ins.Plan.Validate(); err != nil {
					bad[i] = err.Error()
					continue
				}
				want, ok := inserts[rec.op.pair]
				if !ok {
					if runner == nil {
						runner = insertion.NewRunner(b.Graph, b.Placement)
					}
					if want, err = wantInsert(b, runner, w.insertRequest(rec.op.pair)); err != nil {
						return nil, err
					}
					inserts[rec.op.pair] = want
				}
				got, err := jsonString(rec.ins)
				if err != nil {
					return nil, err
				}
				if got != want {
					bad[i] = "insert" + mismatch
				}
			}
		}
	}
	m, err := scrape(ctx, w.s.cl, w.s.lb.URL)
	if err != nil {
		return nil, err
	}
	if m["bufinsd_store_invalid_total"] != 0 || m["bufinsd_rejected_total"] != 0 {
		return bad, fmt.Errorf("store invalid %v, rejected %v", m["bufinsd_store_invalid_total"], m["bufinsd_rejected_total"])
	}
	return bad, nil
}

// quality averages the in-sample yield gain, buffer count and range of the
// first qualityPairs fresh insert pairs. The in-sample gain is the share of
// insertion samples the plan repairs: 1 − unfixable − already passing.
func (w *prepareInsertWL) quality() (yi, nb, ab float64) {
	seen := map[int]bool{}
	var yis, nbs, abs []float64
	for _, rec := range w.recs {
		p := rec.op.pair
		if rec.op.kind != "insert" || p >= qualityPairs || seen[p] {
			continue
		}
		seen[p] = true
		st := rec.ins.Stats
		yis = append(yis, 100*float64(st.Samples-st.InfeasibleStep2-st.ZeroViolation)/float64(st.Samples))
		nbs = append(nbs, float64(rec.ins.Nb))
		abs = append(abs, rec.ins.Ab)
	}
	return mean(yis), mean(nbs), mean(abs)
}

// bench returns circuit c prepared in-process, keeping the last few.
func (w *prepareInsertWL) bench(c int) (*expt.Bench, error) {
	if b, ok := w.benches[c]; ok {
		return b, nil
	}
	if len(w.benches) > 4 {
		hot := w.benches[-1]
		clear(w.benches)
		w.benches[-1] = hot
	}
	b, err := replayPrepare(nil, w.circuit(c))
	if err != nil {
		return nil, err
	}
	w.benches[c] = b
	return b, nil
}

// replayOp replays traced op i's public steps in-process under a
// replay.<class> root span, for up to ten ops per class that the server
// computed (LRU hits and repeat inserts have nothing to replay), and checks
// the replay's answer against the served one. Traced runs have one client,
// so replays never overlap ops.
func (w *prepareInsertWL) replayOp(tr *tracer, i int, rec prepRec) error {
	if w.replays[rec.class] >= 10 || rec.class == "prepare/lru" || rec.class == "insert/repeat" {
		return nil
	}
	w.replays[rec.class]++
	spec := w.circuit(rec.op.circuit)
	path, err := storeFile(w.storeDir, spec)
	if err != nil {
		return err
	}
	var b *expt.Bench
	switch rec.class {
	case "prepare/store", "whatif":
		b, err = w.bench(rec.op.circuit)
	case "insert/fresh":
		b, err = w.bench(-1)
	}
	if err != nil {
		return err
	}
	root := tr.root("replay." + rec.class)
	same := false
	switch rec.class {
	case "prepare/cold":
		if b, err = replayPrepare(root, spec); err == nil {
			err = replaySnapshot(root, b)
		}
		if err == nil {
			err = replayStoreWrite(root, path, w.out)
		}
		same = err == nil && samePeriod(b.Period, rec.prep)
	case "prepare/store":
		if err = replayStoreRead(root, path); err == nil {
			b, err = replayStoreHit(root, spec, b)
		}
		same = err == nil && samePeriod(b.Period, rec.prep)
	case "whatif":
		var ps mc.PeriodStats
		ps, err = replayWhatIf(root, b, rec.op.edits)
		same = samePeriod(ps, rec.prep)
	case "insert/fresh":
		cfg := insertConfig(b, w.insertRequest(rec.op.pair))
		var res *insertion.Result
		if res, err = runTraced(root, w.hot, cfg, &w.passStats); err == nil {
			var got, want string
			got, err = jsonString(answerOf(b, cfg.T, res))
			if err == nil {
				want, err = jsonString(rec.ins)
			}
			same = got == want
		}
	}
	root.end()
	if err != nil {
		return err
	}
	if !same {
		return fmt.Errorf("replay of op %d (%s) differs from the served answer", i, rec.class)
	}
	w.roots[i] = root
	return nil
}

func (w *prepareInsertWL) layers(ctx context.Context, tr *tracer, ops []opResult) (map[string]float64, error) {
	out := map[string]float64{}
	after, err := scrape(ctx, w.s.cl, w.s.lb.URL)
	if err != nil {
		return nil, err
	}
	serveLayers(w.before, after, out)
	opLayers(ops, out)
	spanLayers(tr, &w.passStats, out)
	out["trace.coverage_frac"] = replayCoverage(ops, coveredMS(tr, w.roots), func(i int) string { return w.recs[i].class })
	return out, nil
}
