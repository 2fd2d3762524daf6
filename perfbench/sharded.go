package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/serve"
	"repro/internal/shard/wire"
	"repro/internal/timing"
	"repro/internal/yield"
)

// shardedMix is one block of sharded ops. Within a kind, ops walk their
// inputs in order (insert targets, plans, universes), so every block of 20
// issues the same mix.
var shardedMix = mix{{"insert", 8}, {"yield", 8}, {"adaptive", 4}}

// shardedWL is a coordinator plus one loopback shard worker in this
// process, speaking the binary codec, driven by one closed-loop client
// issuing /v1/insert at fresh (target, seed) pairs and fixed-n plus
// adaptive /v1/yield. It is the only workload that runs the shard plane,
// the wire codecs and the coordinator.
type shardedWL struct {
	seed       uint64
	samples    int
	insertSeed uint64
	n, adaptN  int
	eps        float64
	planN      int
	universes  []uint64

	worker, coord *served
	rt            *timingRT
	plans         []planAt
	book          *yieldBook

	mu      sync.Mutex
	inserts map[int]insertRec
	roots   map[int]*span // traced ops' root spans by op index
	before  map[string]float64
}

// insertRec is one recorded sharded insert.
type insertRec struct {
	pair int
	ans  insertAnswer
}

func newSharded(seed uint64, tiny bool) *shardedWL {
	w := &shardedWL{seed: seed, samples: 150, insertSeed: 7000, n: 2000, adaptN: 16000, eps: 0.02, planN: 200}
	if tiny {
		w.samples, w.n, w.adaptN, w.eps, w.planN = 30, 200, 2000, 0.05, 40
	}
	// Fixed universes, as in serve_yield (see yieldUniverses).
	w.universes = yieldUniverses[:3]
	return w
}

func (w *shardedWL) cycle() int { return shardedMix.size() }

func (w *shardedWL) setup(ctx context.Context) error {
	w.close()
	worker, err := startServed(serve.Config{})
	if err != nil {
		return err
	}
	w.worker = worker
	coord, err := startServed(serve.Config{Workers: []string{worker.lb.URL}, Codec: serve.CodecBinary})
	if err != nil {
		return err
	}
	w.coord = coord
	w.rt = &timingRT{}
	coord.srv.Pool().WrapTransport(worker.lb.URL, func(base http.RoundTripper) http.RoundTripper {
		w.rt.base = base
		return w.rt
	})
	w.book, w.inserts, w.roots, w.plans = newYieldBook(), map[int]insertRec{}, map[int]*span{}, nil
	for _, s := range []*served{worker, coord} {
		if _, err := post(ctx, s.cl, s.url("/v1/prepare"), serve.PrepareRequest{Circuit: serve.CircuitSpec{Preset: hotPreset}}); err != nil {
			return err
		}
	}
	for _, k := range []float64{0, 1} {
		pl, err := insertPlan(ctx, coord, hotPreset, k, w.planN, planSeed)
		if err != nil {
			return err
		}
		w.plans = append(w.plans, pl)
	}
	return nil
}

func (w *shardedWL) close() {
	w.coord.close()
	w.worker.close()
	w.coord, w.worker = nil, nil
}

func (w *shardedWL) startTrace(ctx context.Context) error {
	m, err := scrape(ctx, w.coord.cl, w.coord.lb.URL)
	w.before = m
	return err
}

// insertRequest is the /v1/insert request of fresh pair m.
func (w *shardedWL) insertRequest(m int) serve.InsertRequest {
	k := insertKs[m%len(insertKs)]
	return serve.InsertRequest{Circuit: serve.CircuitSpec{Preset: hotPreset}, TargetK: &k, Samples: w.samples, Seed: w.insertSeed + uint64(m)}
}

func (w *shardedWL) op(ctx context.Context, i int, tr *tracer) opResult {
	kind := blockKind(shardedMix, w.seed, i)
	k := countBefore(shardedMix, w.seed, i, kind)
	root := tr.root("op." + kind)
	if root != nil {
		w.mu.Lock()
		w.roots[i] = root
		w.mu.Unlock()
	}
	w.rt.op.Store(root)
	defer w.rt.op.Store(nil)
	if kind == "insert" {
		// Every insert is a fresh pair, so the plan cache never answers and
		// each one runs the sharded flow.
		var resp serve.InsertResponse
		data, err := postJSON(ctx, w.coord.cl, w.coord.url("/v1/insert"), w.insertRequest(k), &resp)
		root.end()
		op := opResult{kind: kind, key: kind, err: err, respBytes: len(data)}
		if err == nil {
			op.serverMS, op.hasServer = float64(resp.ElapsedMS), !resp.Cached
			w.mu.Lock()
			w.inserts[i] = insertRec{pair: k, ans: insertAnswer{Plan: resp.Plan, T: resp.T, Nb: resp.Nb, Ab: resp.Ab, Stats: resp.Stats}}
			w.mu.Unlock()
		}
		return op
	}
	pl := w.plans[k%len(w.plans)]
	k /= len(w.plans)
	req := serve.YieldRequest{Circuit: serve.CircuitSpec{Preset: hotPreset}, EvalSamples: w.n, Seed: w.universes[k%len(w.universes)]}
	idx := -1
	if kind == "yield" {
		req.Queries = []serve.YieldQuery{{Plan: pl.plan, Periods: sweepAround(pl.plan.T, []float64{0.98, 1, 1.02})}}
		idx = 1
	} else {
		req.Seed = adaptiveUniverses[k%len(adaptiveUniverses)]
		req.EvalSamples, req.Eps = w.adaptN, w.eps
		req.Queries = []serve.YieldQuery{{Plan: pl.plan}}
	}
	return w.book.do(ctx, w.coord, i, kind, kind, req, idx, tr, root)
}

func (w *shardedWL) verify(ctx context.Context) (map[int]string, error) {
	bad := map[int]string{}
	b, err := expt.PreparePreset(hotPreset, expt.Options{})
	if err != nil {
		return nil, err
	}
	if err := w.book.verify(ctx, map[string]*timing.Graph{hotPreset: b.Graph}, bad); err != nil {
		return nil, err
	}
	runner := insertion.NewRunner(b.Graph, b.Placement)
	for i, rec := range w.inserts {
		if err := rec.ans.Plan.Validate(); err != nil {
			bad[i] = err.Error()
			continue
		}
		want, err := wantInsert(b, runner, w.insertRequest(rec.pair))
		if err != nil {
			return nil, err
		}
		got, err := jsonString(rec.ans)
		if err != nil {
			return nil, err
		}
		if got != want {
			bad[i] = "sharded insert" + mismatch
		}
	}
	m, err := scrape(ctx, w.coord.cl, w.coord.lb.URL)
	if err != nil {
		return nil, err
	}
	if m["bufinsd_rejected_total"] != 0 || m["bufinsd_shard_corrupt_total"] != 0 {
		return bad, fmt.Errorf("coordinator rejected %v requests, %v corrupt frames", m["bufinsd_rejected_total"], m["bufinsd_shard_corrupt_total"])
	}
	return bad, nil
}

// quality: the mean plan yield gain over the distinct fixed-n queries, and
// the mean buffer count and range of the first qualityPairs inserts' plans,
// which are the same pairs in every run.
func (w *shardedWL) quality() (yi, nb, ab float64) {
	var nbs, abs []float64
	for _, rec := range w.inserts {
		if rec.pair < qualityPairs {
			nbs = append(nbs, float64(rec.ans.Nb))
			abs = append(abs, rec.ans.Ab)
		}
	}
	return w.book.meanGain(), mean(nbs), mean(abs)
}

func (w *shardedWL) layers(ctx context.Context, tr *tracer, ops []opResult) (map[string]float64, error) {
	out := map[string]float64{}
	after, err := scrape(ctx, w.coord.cl, w.coord.lb.URL)
	if err != nil {
		return nil, err
	}
	serveLayers(w.before, after, out)
	opLayers(ops, out)
	spanLayers(tr, &passStats{}, out)
	self, _ := tr.selfTimes()
	rt := w.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if l := self["shard.rtt"]; l != nil {
		out["shard.rtt_ms_p50"] = quantile(l.durUS, 0.5) / 1000
		out["shard.ranges_per_req"] = float64(l.n) / float64(len(ops))
	}
	out["shard.req_kb"] = mean(rt.reqKB)
	out["shard.resp_kb"] = mean(rt.respKB)

	// Coordinator self time is the server's elapsed time minus the union of
	// the op's round trips. Coverage counts only the measured parts of an
	// op — client overhead and round trips — not that residual.
	tr.mu.Lock()
	rtts := map[int64][]spanRec{}
	for _, s := range tr.spans {
		if s.Name == "shard.rtt" {
			rtts[s.Parent] = append(rtts[s.Parent], s)
		}
	}
	tr.mu.Unlock()
	var coordSelf []float64
	var wall, covered float64
	for _, op := range ops {
		dur := ms(op.wall)
		wall += dur
		root := w.roots[op.idx]
		if !op.hasServer || root == nil {
			covered += dur
			continue
		}
		union := unionWithin(rtts[root.id], math.Inf(-1), math.Inf(1)) / 1000
		self := max(0, op.serverMS-union)
		coordSelf = append(coordSelf, self)
		covered += min(dur, dur-op.serverMS+union)
	}
	out["serve.coord_self_ms"] = mean(coordSelf)
	if wall > 0 {
		out["trace.coverage_frac"] = covered / wall
	}
	enc, dec := rt.wireTimes()
	out["wire.encode_us"], out["wire.decode_us"] = enc, dec
	return out, nil
}

// timingRT is the coordinator's transport to the worker: it times each
// range round trip as a shard.rtt span under the current op's root, counts
// request and response bytes, and keeps a sample of binary response frames
// for the wire codec timing.
type timingRT struct {
	base http.RoundTripper
	op   atomic.Pointer[span]

	mu      sync.Mutex
	reqKB   []float64
	respKB  []float64
	inserts [][]byte
	tallies [][]byte
}

// maxFrames bounds the response frames kept per payload kind.
const maxFrames = 32

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	root := t.op.Load()
	if root == nil {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	root.add("shard.rtt", start, time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqKB = append(t.reqKB, float64(req.ContentLength)/1024)
	t.respKB = append(t.respKB, float64(len(body))/1024)
	if resp.StatusCode == http.StatusOK && strings.Contains(resp.Header.Get("Content-Type"), wire.ContentType) {
		switch {
		case strings.HasSuffix(req.URL.Path, "insert-pass") && len(t.inserts) < maxFrames:
			t.inserts = append(t.inserts, body)
		case strings.HasSuffix(req.URL.Path, "yield-pass") && len(t.tallies) < maxFrames:
			t.tallies = append(t.tallies, body)
		}
	}
	return resp, nil
}

// wireTimes decodes and re-encodes every kept frame's batch (after the
// version byte) with the insertion and yield codecs, many times over, and
// returns the mean encode and decode time per frame in µs. Callers hold
// t.mu.
func (t *timingRT) wireTimes() (encUS, decUS float64) {
	const reps = 50
	var enc, dec time.Duration
	frames := 0
	var ob insertion.OutcomeBuf
	var tb yield.TallyBuf
	buf := make([]byte, 0, 1<<16)
	for _, f := range t.inserts {
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			r := wire.NewReader(f)
			r.Version(wire.Version)
			outs := ob.Decode(&r)
			t1 := time.Now()
			buf = insertion.AppendOutcomes(buf[:0], outs)
			dec += t1.Sub(t0)
			enc += time.Since(t1)
		}
		frames++
	}
	for _, f := range t.tallies {
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			r := wire.NewReader(f)
			r.Version(wire.Version)
			ts := tb.Decode(&r)
			t1 := time.Now()
			buf = yield.AppendTallies(buf[:0], ts)
			dec += t1.Sub(t0)
			enc += time.Since(t1)
		}
		frames++
	}
	if frames == 0 {
		return 0, 0
	}
	n := float64(frames * reps)
	return float64(enc) / n / 1000, float64(dec) / n / 1000
}
