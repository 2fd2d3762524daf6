package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// opKinds are the op kinds the workloads issue; the traced run reports each
// kind's median latency as op.<kind>_ms_p50.
var opKinds = []string{"rowset", "yield", "strategies", "adaptive", "prepare", "whatif", "insert"}

// layerMetric is one per-layer metric: its name, unit and direction.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric of the traced run, in the order of
// BENCHMARK.json. A layer a workload does not exercise reports 0.
var perLayer = []layerMetric{
	{"insertion.step1_ms", "ms", "lower"},
	{"insertion.rerun_ms", "ms", "lower"},
	{"insertion.step2_ms", "ms", "lower"},
	{"insertion.solve_us_per_sample.floating", "us", "lower"},
	{"insertion.solve_us_per_sample.fixed", "us", "lower"},
	{"insertion.fold_ms", "ms", "lower"},
	{"insertion.violating_frac", "frac", "lower"},
	{"insertion.rescued_frac", "frac", "higher"},
	{"yield.expand_ms", "ms", "lower"},
	{"mc.materialize_ms", "ms", "lower"},
	{"yield.sweep_ms", "ms", "lower"},
	{"yield.adaptive_ms", "ms", "lower"},
	{"yield.adaptive_used_frac", "frac", "lower"},
	{"yield.adaptive_waves", "count", "lower"},
	{"yield.adaptive_met_frac", "frac", "higher"},
	{"gen.build_ms", "ms", "lower"},
	{"ssta.new_ms", "ms", "lower"},
	{"timing.build_ms", "ms", "lower"},
	{"timing.skew_ms", "ms", "lower"},
	{"placement.grid_ms", "ms", "lower"},
	{"mc.period_ms", "ms", "lower"},
	{"ssta.fork_ms", "ms", "lower"},
	{"ssta.cone_us", "us", "lower"},
	{"timing.buildpairs_ms", "ms", "lower"},
	{"mc.period_whatif_ms", "ms", "lower"},
	{"store.snapshot_ms", "ms", "lower"},
	{"store.restore_ms", "ms", "lower"},
	{"store.read_ms", "ms", "lower"},
	{"store.write_ms", "ms", "lower"},
	{"store.hit_ratio", "frac", "higher"},
	{"store.invalid", "count", "lower"},
	{"serve.bench_hit_ratio", "frac", "higher"},
	{"serve.plan_hit_ratio", "frac", "higher"},
	{"serve.pop_hit_ratio", "frac", "higher"},
	{"serve.overhead_ms_p50", "ms", "lower"},
	{"serve.resp_kb", "KB", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.coord_self_ms", "ms", "lower"},
	{"shard.rtt_ms_p50", "ms", "lower"},
	{"shard.req_kb", "KB", "lower"},
	{"shard.resp_kb", "KB", "lower"},
	{"shard.ranges_per_req", "count", "lower"},
	{"shard.redispatched", "count", "lower"},
	{"shard.local_ranges", "count", "lower"},
	{"shard.hedge_waste_frac", "frac", "lower"},
	{"wire.encode_us", "us", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.coverage_frac", "frac", "higher"},
	{"op.rowset_ms_p50", "ms", "lower"},
	{"op.yield_ms_p50", "ms", "lower"},
	{"op.strategies_ms_p50", "ms", "lower"},
	{"op.adaptive_ms_p50", "ms", "lower"},
	{"op.prepare_ms_p50", "ms", "lower"},
	{"op.whatif_ms_p50", "ms", "lower"},
	{"op.insert_ms_p50", "ms", "lower"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// newRand returns the deterministic generator of one stream of a seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// mix is a small kind-count table for one block of generated ops.
type mix []struct {
	kind string
	n    int
}

// size returns the number of ops in one block of the mix.
func (m mix) size() int {
	n := 0
	for _, e := range m {
		n += e.n
	}
	return n
}

// blockKind returns the kind of op i: the sequence is cut into blocks of
// the mix's size, each a seed-shuffled permutation of the mix, so any
// prefix of the run carries the mix's proportions.
func blockKind(m mix, seed uint64, i int) string {
	size := m.size()
	kinds := make([]string, 0, size)
	for _, e := range m {
		for j := 0; j < e.n; j++ {
			kinds = append(kinds, e.kind)
		}
	}
	r := newRand(seed, uint64(i/size)+1)
	r.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	return kinds[i%size]
}

// countBefore returns how many ops of the given kind precede op i in the
// sequence, so per-kind inputs (such as fresh insert pairs) are numbered
// the same way in every run whatever the seed's op order.
func countBefore(m mix, seed uint64, i int, kind string) int {
	size, per := m.size(), 0
	for _, e := range m {
		if e.kind == kind {
			per = e.n
		}
	}
	n := i / size * per
	for j := i / size * size; j < i; j++ {
		if blockKind(m, seed, j) == kind {
			n++
		}
	}
	return n
}

// loopback serves a handler on an ephemeral 127.0.0.1 port.
type loopback struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

// close shuts the server down and waits until its serve loop has ended.
func (l *loopback) close() {
	if l == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// httpClient is a loopback client keeping a few idle connections per host.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 5 * time.Minute}
}

// post sends req as JSON and returns the raw 200 response body.
func post(ctx context.Context, cl *http.Client, url string, req any) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// postJSON posts req and decodes the 200 response into out, returning the
// raw body too.
func postJSON(ctx context.Context, cl *http.Client, url string, req, out any) ([]byte, error) {
	data, err := post(ctx, cl, url, req)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("decoding %s response: %w", url, err)
	}
	return data, nil
}

// scrape reads a server's /metrics into a map keyed by the sample's name
// with its labels, e.g. `bufinsd_cache_hits_total{cache="plan"}`.
func scrape(ctx context.Context, cl *http.Client, base string) (map[string]float64, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// delta returns after[k] − before[k].
func delta(before, after map[string]float64, k string) float64 { return after[k] - before[k] }

// mismatch is the failure reason of an answer that differs from the
// in-process answer.
const mismatch = " differs from the in-process answer"
