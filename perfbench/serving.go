package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/yield"
)

// served is a serve.Server on loopback plus the benchmark's client.
type served struct {
	srv *serve.Server
	lb  *loopback
	cl  *http.Client
}

func startServed(cfg serve.Config) (*served, error) {
	srv := serve.New(cfg)
	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &served{srv: srv, lb: lb, cl: newHTTPClient()}, nil
}

// close stops the server and waits for it; nil-safe.
func (s *served) close() {
	if s == nil {
		return
	}
	s.cl.CloseIdleConnections()
	s.lb.close()
}

func (s *served) url(path string) string { return s.lb.URL + path }

// planAt holds a plan made during set-up with its Table-I figures.
type planAt struct {
	preset string
	plan   insertion.Plan
	nb     int
	ab     float64
}

// insertPlan asks a server for a plan on a preset at µT + k·σT.
func insertPlan(ctx context.Context, s *served, preset string, k float64, samples int, seed uint64) (planAt, error) {
	var resp serve.InsertResponse
	if _, err := postJSON(ctx, s.cl, s.url("/v1/insert"), serve.InsertRequest{
		Circuit: serve.CircuitSpec{Preset: preset}, TargetK: &k, Samples: samples, Seed: seed,
	}, &resp); err != nil {
		return planAt{}, err
	}
	if err := resp.Plan.Validate(); err != nil {
		return planAt{}, fmt.Errorf("set-up plan on %s: %w", preset, err)
	}
	return planAt{preset: preset, plan: resp.Plan, nb: resp.Nb, ab: resp.Ab}, nil
}

// insertAnswer is the checked part of an /v1/insert response.
type insertAnswer struct {
	Plan  insertion.Plan
	T     float64
	Nb    int
	Ab    float64
	Stats serve.InsertStats
}

// answerOf is the insertAnswer of an in-process flow result at period T on
// bench b.
func answerOf(b *expt.Bench, T float64, res *insertion.Result) insertAnswer {
	st := res.Stats
	return insertAnswer{Plan: res.Plan(b.Name), T: T, Nb: res.NumPhysicalBuffers(), Ab: res.AvgRangeSteps(),
		Stats: serve.InsertStats{Samples: st.Samples, ZeroViolation: st.ZeroViolation, InfeasibleStep1: st.InfeasibleStep1,
			InfeasibleStep2: st.InfeasibleStep2, SelfLoopFailures: st.SelfLoopFailures, MissingFrac: st.MissingFrac, SkippedB1: st.SkippedB1}}
}

// insertConfig is the insertion.Config the server runs for an /v1/insert
// request (TargetK set) on bench b.
func insertConfig(b *expt.Bench, req serve.InsertRequest) insertion.Config {
	return insertion.Config{T: core.NewSystem(b).TargetPeriod(*req.TargetK), Samples: req.Samples, Seed: req.Seed}
}

// wantInsert runs an /v1/insert request's flow in-process with runner (on
// bench b) and returns the answer as JSON.
func wantInsert(b *expt.Bench, runner *insertion.Runner, req serve.InsertRequest) (string, error) {
	cfg := insertConfig(b, req)
	res, err := runner.Run(cfg)
	if err != nil {
		return "", err
	}
	return jsonString(answerOf(b, cfg.T, res))
}

// jsonString returns v's JSON encoding as a string.
func jsonString(v any) (string, error) {
	data, err := json.Marshal(v)
	return string(data), err
}

// yieldResponse is the part of a /v1/yield response the benchmark reads;
// Results keeps the served bytes for the byte-identity check.
type yieldResponse struct {
	Results   json.RawMessage `json:"results"`
	ElapsedMS int64           `json:"elapsed_ms"`
}

// yieldRec is one recorded /v1/yield op.
type yieldRec struct {
	key   string   // request identity (hash of the request JSON)
	sum   [32]byte // hash of the served results
	class string
	gain  bool    // yi is set: a fixed-n plan query
	yi    float64 // plan yield gain at the plan's period
}

// yieldBook records /v1/yield ops and checks them against the in-process
// evaluation; the serve_yield and sharded workloads share it.
type yieldBook struct {
	mu   sync.Mutex
	reqs map[string]serve.YieldRequest
	recs map[int]yieldRec

	// Replays of traced ops (startReplays): the in-process graphs, the
	// replays per class, the replays done so far and their root spans.
	graphs   map[string]*timing.Graph
	perClass int
	replays  map[string]int
	roots    map[int]*span
}

func newYieldBook() *yieldBook {
	return &yieldBook{reqs: map[string]serve.YieldRequest{}, recs: map[int]yieldRec{}}
}

// requestKey identifies a request by the hash of its JSON.
func requestKey(req any) string {
	data, _ := json.Marshal(req)
	sum := sha256.Sum256(data)
	return string(sum[:])
}

// do posts one yield request and records the answer. periodIdx is the
// index of the plan's own period in the sweep (−1: no gain recorded). A
// traced op (root set) then replays in-process if startReplays asked for it;
// the replay's time is the result's untimed part.
func (b *yieldBook) do(ctx context.Context, s *served, i int, kind, class string, req serve.YieldRequest, periodIdx int, tr *tracer, root *span) opResult {
	var resp yieldResponse
	data, err := postJSON(ctx, s.cl, s.url("/v1/yield"), req, &resp)
	root.end()
	op := opResult{kind: kind, key: class, err: err, respBytes: len(data)}
	if err != nil {
		return op
	}
	op.serverMS, op.hasServer = float64(resp.ElapsedMS), true
	rec := yieldRec{key: requestKey(req), sum: sha256.Sum256(resp.Results), class: class}
	if periodIdx >= 0 {
		var results []serve.YieldResult
		if err := json.Unmarshal(resp.Results, &results); err != nil || len(results) == 0 || len(results[0].Reports) == 0 {
			op.err = fmt.Errorf("undecodable yield results: %v", err)
			return op
		}
		rec.yi, rec.gain = results[0].Reports[0].At(periodIdx).Improvement(), true
	}
	b.mu.Lock()
	b.reqs[rec.key] = req
	b.recs[i] = rec
	b.mu.Unlock()
	if root != nil && b.perClass > 0 {
		t0 := time.Now()
		op.err = b.replayOp(tr, i, rec, req)
		op.untimed = time.Since(t0)
	}
	return op
}

// verify recomputes every distinct request in-process (serve.EvaluateQueries
// or serve.EvaluateQueriesAdaptive on graphs[preset]) and fails every op
// whose served results differ by a single byte.
func (b *yieldBook) verify(ctx context.Context, graphs map[string]*timing.Graph, bad map[int]string) error {
	want := map[string][32]byte{}
	for key, req := range b.reqs {
		g := graphs[req.Circuit.Preset]
		if g == nil {
			return fmt.Errorf("no in-process bench for %q", req.Circuit.Preset)
		}
		var (
			results []serve.YieldResult
			err     error
		)
		if req.Eps > 0 {
			results, err = serve.EvaluateQueriesAdaptive(g, req.Seed, req.EvalSamples, req.Queries, yield.Precision{Eps: req.Eps, Conf: req.Conf})
		} else {
			results, err = serve.EvaluateQueries(ctx, g, mc.New(g, req.Seed), req.EvalSamples, req.Queries)
		}
		if err != nil {
			return fmt.Errorf("in-process evaluation: %w", err)
		}
		data, err := json.Marshal(results)
		if err != nil {
			return err
		}
		want[key] = sha256.Sum256(data)
	}
	for i, rec := range b.recs {
		if rec.sum != want[rec.key] {
			bad[i] = "served yield" + mismatch
		}
	}
	return nil
}

// meanGain averages the recorded fixed-n yield gains once per distinct
// request.
func (b *yieldBook) meanGain() float64 {
	seen := map[string]bool{}
	var yis []float64
	for _, rec := range b.recs {
		if !rec.gain || seen[rec.key] {
			continue
		}
		seen[rec.key] = true
		yis = append(yis, rec.yi)
	}
	return mean(yis)
}

// startReplays makes each of the next traced ops, up to perClass per class
// and circuit, replay in-process on graphs right after it completes (see
// replayOp). Traced runs have one client, so replays never overlap ops.
func (b *yieldBook) startReplays(graphs map[string]*timing.Graph, perClass int) {
	b.graphs, b.perClass, b.replays, b.roots = graphs, perClass, map[string]int{}, map[int]*span{}
}

// replayOp replays op i under a replay.<class> root span, unless its class
// has had its replays, and checks that the replay's results are the served
// ones byte for byte.
func (b *yieldBook) replayOp(tr *tracer, i int, rec yieldRec, req serve.YieldRequest) error {
	class := rec.class + "/" + req.Circuit.Preset
	if b.replays[class] >= b.perClass {
		return nil
	}
	b.replays[class]++
	root := tr.root("replay." + rec.class)
	results, err := replayYield(root, b.graphs[req.Circuit.Preset], req, strings.HasSuffix(rec.class, "/miss"))
	root.end()
	if err != nil {
		return err
	}
	data, err := json.Marshal(results)
	if err != nil {
		return err
	}
	if sha256.Sum256(data) != rec.sum {
		return fmt.Errorf("replay of op %d (%s) differs from the served answer", i, rec.class)
	}
	b.roots[i] = root
	return nil
}

// coveredMS maps each replay root (by op index) to the time its children
// (the layers) cover, in ms.
func coveredMS(tr *tracer, roots map[int]*span) map[int]float64 {
	_, covered := tr.selfTimes()
	out := map[int]float64{}
	for i, r := range roots {
		out[i] = covered[r.id] / 1000
	}
	return out
}

// sweepAround returns a sorted sweep of periods around T whose middle
// point is T itself.
func sweepAround(T float64, steps []float64) []float64 {
	out := make([]float64, len(steps))
	for i, f := range steps {
		out[i] = T * f
	}
	return out
}
