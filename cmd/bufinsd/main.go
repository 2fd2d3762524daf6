// Command bufinsd is the long-running buffer-insertion service: it keeps
// prepared benchmarks (seconds of SSTA each) warm in an LRU cache, pools
// sample solvers and chip populations per circuit, and answers insertion
// and yield queries over HTTP/JSON (see internal/serve for the API).
//
// Usage:
//
//	bufinsd -addr :8077 -prepare s9234,s13207
//	bufinsd -addr 127.0.0.1:0 -addr-file /tmp/addr   # ephemeral port
//	bufinsd -check http://127.0.0.1:8077             # client self-check
//	bufinsd -worker -addr :8078                      # shard worker
//	bufinsd -workers http://h1:8078,http://h2:8078   # coordinator
//	bufinsd -store /var/lib/bufinsd                  # persistent prepared store
//
// With -workers the daemon coordinates the Monte Carlo sample loops of
// /v1/insert and /v1/yield across shard workers (other bufinsd processes):
// contiguous k-ranges go to the workers' /v1/shard/* endpoints, their
// k-indexed partials merge into byte-identical final stats, and ranges of
// failed workers are re-dispatched (degrading to in-process execution with
// every worker down). -worker marks a process as a dedicated worker (it
// refuses -workers so a worker never fans out itself).
//
// -store names a directory for the persistent prepared-bench store:
// first prepares write checksummed snapshots of the SSTA state there, and
// a restarted daemon re-attaches to them, cold-starting each circuit in
// milliseconds instead of re-running the propagation and the period Monte
// Carlo. Entries are verified on load; corrupt ones are quarantined and
// re-prepared, never trusted.
//
// Coordinator and workers speak one framing on /v1/shard/*: the
// length-prefixed little-endian binary frame of internal/shard/wire. A
// worker answers any other request Content-Type with 415.
//
// The -check mode probes a running daemon: it prepares and inserts a tiny
// generated circuit through the service and verifies the returned plan and
// yield report are byte-identical to the in-process flow, exiting non-zero
// on any mismatch — the CI smoke test runs exactly this, and with
// -expect-shards additionally requires the daemon's /metrics to show shard
// ranges dispatched to workers (the distributed smoke probes a coordinator
// this way). The probe also runs an adaptive (eps-bounded) yield query;
// -expect-waves additionally requires /metrics to show it ran more than
// one wave and stopped early (samples_used < samples_requested).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/shard/chaos"
	"repro/internal/yield"
)

// fatalf reports a fatal error on stderr and exits non-zero — the single
// failure path, so scripts can trust the exit code.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bufinsd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8077", "listen address (port 0 = ephemeral)")
		addrFile    = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts)")
		benches     = flag.Int("benches", 0, "prepared-bench LRU size (0 = default 8)")
		plans       = flag.Int("plans", 0, "per-bench plan cache size (0 = default 64)")
		pops        = flag.Int("populations", 0, "per-bench population cache size (0 = default 4)")
		popMB       = flag.Int("pop-mb", 0, "max MiB for one cached chip population (0 = default 256)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently served requests (0 = 4×GOMAXPROCS)")
		prepare     = flag.String("prepare", "", "comma-separated presets to warm at boot")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
		check       = flag.String("check", "", "probe a running daemon at this base URL and exit")
		workerMode  = flag.Bool("worker", false, "run as a shard worker: answer /v1/shard/* passes for a coordinator (guards against -workers: a worker never fans out itself)")
		workers     = flag.String("workers", "", "comma-separated shard-worker base URLs: coordinate /v1/insert and /v1/yield sample loops across them")
		shards      = flag.Int("shards", 0, "k-ranges per sharded pass (0 = 4 per worker)")
		expectShard = flag.Bool("expect-shards", false, "with -check: additionally require the daemon to have dispatched shard ranges to workers (proves the answers came through the distributed path)")
		expectWaves = flag.Bool("expect-waves", false, "with -check: additionally require the daemon's /metrics to show a multi-wave adaptive evaluation that stopped under its sample cap")
		expectStore = flag.Bool("expect-store", false, "with -check: additionally require the daemon's /metrics to show the prepared-bench store answered (hits >= 1, misses == 0 — proves a restart re-attached without re-preparing)")
		storeDir    = flag.String("store", "", "persistent prepared-bench store directory (empty = in-memory LRU only)")

		rangeTimeout = flag.Duration("range-timeout", 0, "per-attempt deadline for one sharded range (0 = transport timeout only)")
		retries      = flag.Int("retries", 0, "worker attempts per range before in-process fallback (0 = default 4)")
		hedge        = flag.Float64("hedge", 0, "hedge stragglers outstanding this many multiples of the mean range latency (0 = default 3, negative disables)")
		brFailures   = flag.Int("breaker-failures", 0, "consecutive failures that trip a worker's circuit breaker (0 = default 3)")
		brCooldown   = flag.Duration("breaker-cooldown", 0, "open-breaker interval before the half-open probe (0 = default 5s)")

		chaosWorker = flag.String("chaos-worker", "", "wrap this worker base URL's transport in deterministic fault injection (CI chaos smoke only)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "fault-schedule seed for -chaos-worker")
		chaosRate   = flag.Float64("chaos-rate", 0.25, "fraction of -chaos-worker requests that draw a fault")
		chaosFaults = flag.String("chaos-faults", "", "comma-separated fault kinds for -chaos-worker (empty = all: drop,delay,500,429,reset,truncate,corrupt)")
	)
	flag.Parse()

	if *check != "" {
		if err := runCheck(*check, *expectShard, *expectWaves, *expectStore); err != nil {
			fatalf("check: %v", err)
		}
		fmt.Println("bufinsd check OK: service plans and yields byte-identical to the in-process flow")
		return
	}
	if *workerMode && *workers != "" {
		fatalf("-worker and -workers are mutually exclusive: a shard worker must not coordinate its own worker pool")
	}

	var workerList []string
	if *workers != "" {
		workerList = strings.Split(*workers, ",")
	}
	faults, err := chaos.ParseKinds(*chaosFaults)
	if err != nil {
		fatalf("%v", err)
	}
	if *chaosWorker != "" && len(workerList) == 0 {
		fatalf("-chaos-worker requires -workers")
	}
	if *storeDir != "" {
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			fatalf("-store: %v", err)
		}
	}
	s := serve.New(serve.Config{
		MaxBenches:      *benches,
		MaxPlans:        *plans,
		MaxPopulations:  *pops,
		MaxPopulationMB: *popMB,
		MaxInflight:     *maxInflight,
		Workers:         workerList,
		Shards:          *shards,
		Dispatch: shard.Options{
			RangeTimeout:     *rangeTimeout,
			MaxAttempts:      *retries,
			HedgeMultiple:    *hedge,
			BreakerThreshold: *brFailures,
			BreakerCooldown:  *brCooldown,
		},
		ChaosWorker: *chaosWorker,
		ChaosSeed:   *chaosSeed,
		ChaosRate:   *chaosRate,
		ChaosFaults: faults,
		StoreDir:    *storeDir,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	if *chaosWorker != "" {
		fmt.Printf("bufinsd: CHAOS injection on %s (seed %d, rate %.2f)\n", *chaosWorker, *chaosSeed, *chaosRate)
	}
	resolved := ln.Addr().String()
	role := "standalone"
	switch {
	case *workerMode:
		role = "shard worker"
	case len(workerList) > 0:
		role = fmt.Sprintf("coordinator over %d worker(s)", len(workerList))
	}
	fmt.Printf("bufinsd: listening on http://%s (%s)\n", resolved, role)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved), 0o644); err != nil {
			fatalf("%v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Boot-time warm-up runs through the public API (a client against
	// ourselves) so it exercises the same path requests take; the listener
	// is already up, so /healthz works while presets prepare.
	if *prepare != "" {
		go func() {
			cl := serve.NewClient("http://" + resolved)
			for _, name := range strings.Split(*prepare, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				start := time.Now()
				if _, err := cl.Prepare(ctx, serve.PrepareRequest{
					Circuit: serve.CircuitSpec{Preset: name},
				}); err != nil {
					fmt.Fprintf(os.Stderr, "bufinsd: warm-up %s: %v\n", name, err)
					continue
				}
				fmt.Printf("bufinsd: warmed %s in %v\n", name, time.Since(start).Round(time.Millisecond))
			}
		}()
	}

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "bufinsd: shutting down, draining requests")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fatalf("drain: %v", err)
	}
}

// checkCircuit is the tiny generated circuit the self-check serves — small
// enough that the whole probe takes well under a second.
func checkCircuit() (serve.CircuitSpec, expt.Options) {
	return serve.CircuitSpec{Gen: &gen.Config{NumFFs: 16, NumGates: 70, Seed: 11}},
		expt.Options{PeriodSamples: 400}
}

// runCheck verifies a running daemon end to end against the in-process
// flow: prepare + insert + yield on a tiny generated circuit must be
// byte-identical to computing the same quantities locally. With
// expectShards, the daemon must additionally report shard ranges
// dispatched to workers on /metrics — probing a coordinator proves the
// byte-identical answers actually came through the distributed path.
func runCheck(base string, expectShards, expectWaves, expectStore bool) error {
	if err := runCheckFlow(base); err != nil {
		return err
	}
	metricsText, err := fetchMetrics(base)
	if err != nil {
		return err
	}
	// Show which recovery paths actually fired during the probe: the smoke
	// logs should make a silent retry or a tripped breaker visible.
	printRecoveryCounters(metricsText)
	if expectShards {
		if err := checkShardDispatch(metricsText); err != nil {
			return err
		}
	}
	if expectStore {
		if err := checkStoreHits(metricsText); err != nil {
			return err
		}
	}
	if expectWaves {
		return checkAdaptiveWaves(metricsText)
	}
	return nil
}

// fetchMetrics returns the daemon's raw /metrics exposition.
func fetchMetrics(base string) (string, error) {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// printRecoveryCounters echoes the dispatch plane's retry/hedge/breaker
// counters, the chaos counters, and the adaptive-sampling counters
// (anything under bufinsd_shard_* / bufinsd_chaos_* / bufinsd_adaptive_*)
// so smoke logs record which failure-handling paths fired and how much
// sampling the sequential evaluation actually bought.
func printRecoveryCounters(metricsText string) {
	for _, line := range strings.Split(metricsText, "\n") {
		if strings.HasPrefix(line, "bufinsd_shard_") || strings.HasPrefix(line, "bufinsd_chaos_") ||
			strings.HasPrefix(line, "bufinsd_adaptive_") || strings.HasPrefix(line, "bufinsd_store_") {
			fmt.Printf("bufinsd check: %s\n", line)
		}
	}
}

// checkStoreHits asserts the daemon answered the probe's prepare from its
// persistent store: at least one hit and no misses, proving a restarted
// daemon re-attached to its prepared state without re-running SSTA.
func checkStoreHits(metricsText string) error {
	hits, err := metricValue(metricsText, "bufinsd_store_hits_total ")
	if err != nil {
		return fmt.Errorf("daemon exports no store metrics (started without -store?)")
	}
	if hits < 1 {
		return fmt.Errorf("prepared store answered no prepares (hits = %d, want >= 1)", hits)
	}
	misses, err := metricValue(metricsText, "bufinsd_store_misses_total ")
	if err != nil {
		return err
	}
	if misses != 0 {
		return fmt.Errorf("prepared store missed %d prepare(s) — the daemon re-ran SSTA instead of re-attaching", misses)
	}
	return nil
}

// metricValue extracts one counter from a /metrics exposition by its
// name-plus-labels prefix (up to and including the separating space).
func metricValue(metricsText, metric string) (int64, error) {
	for _, line := range strings.Split(metricsText, "\n") {
		if rest, ok := strings.CutPrefix(line, metric); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %v", line, err)
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("daemon exports no %q metric", strings.TrimSpace(metric))
}

// checkShardDispatch asserts the daemon's /metrics show at least one range
// dispatched to a shard worker.
func checkShardDispatch(metricsText string) error {
	n, err := metricValue(metricsText, `bufinsd_shard_ranges_total{kind="dispatched"} `)
	if err != nil {
		return fmt.Errorf("daemon exports no shard metrics (started without -workers?)")
	}
	if n <= 0 {
		return fmt.Errorf("daemon dispatched no shard ranges (is it a coordinator with live workers?)")
	}
	return nil
}

// checkAdaptiveWaves asserts the daemon's /metrics prove the adaptive probe
// ran a genuinely sequential evaluation: more than one wave, stopping early
// with fewer samples than requested.
func checkAdaptiveWaves(metricsText string) error {
	waves, err := metricValue(metricsText, "bufinsd_adaptive_waves_total ")
	if err != nil {
		return err
	}
	if waves <= 1 {
		return fmt.Errorf("adaptive evaluation ran %d wave(s), want > 1", waves)
	}
	requested, err := metricValue(metricsText, `bufinsd_adaptive_samples_total{kind="requested"} `)
	if err != nil {
		return err
	}
	used, err := metricValue(metricsText, `bufinsd_adaptive_samples_total{kind="used"} `)
	if err != nil {
		return err
	}
	if used >= requested {
		return fmt.Errorf("adaptive evaluation used %d of %d requested samples — no early stop", used, requested)
	}
	return nil
}

func runCheckFlow(base string) error {
	ctx := context.Background()
	cl := serve.NewClient(base)
	if err := cl.Health(); err != nil {
		return err
	}
	spec, opt := checkCircuit()
	const (
		targetK     = 1.0
		samples     = 120
		seed        = 7
		evalSamples = 300
		evalSeed    = seed + 0x1000
	)
	prep, err := cl.Prepare(ctx, serve.PrepareRequest{Circuit: spec, Options: opt})
	if err != nil {
		return err
	}
	k := targetK
	ins, err := cl.Insert(ctx, serve.InsertRequest{
		Circuit: spec, Options: opt, TargetK: &k, Samples: samples, Seed: seed,
	})
	if err != nil {
		return err
	}
	yld, err := cl.Yield(ctx, serve.YieldRequest{
		Circuit: spec, Options: opt, EvalSamples: evalSamples, Seed: evalSeed,
		Queries: []serve.YieldQuery{{Plan: ins.Plan}},
	})
	if err != nil {
		return err
	}

	// The same computation, in process.
	c, err := spec.Build()
	if err != nil {
		return err
	}
	b, err := expt.Prepare(c, opt)
	if err != nil {
		return err
	}
	if prep.Mu != b.Period.Mu || prep.Sigma != b.Period.Sigma {
		return fmt.Errorf("period distribution diverges: server (%v, %v) local (%v, %v)",
			prep.Mu, prep.Sigma, b.Period.Mu, b.Period.Sigma)
	}
	T := b.Period.Mu + targetK*b.Period.Sigma
	res, err := insertion.Run(b.Graph, b.Placement, insertion.Config{T: T, Samples: samples, Seed: seed})
	if err != nil {
		return err
	}
	local := res.Plan(b.Name)
	lj, _ := json.Marshal(local)
	sj, _ := json.Marshal(ins.Plan)
	if string(lj) != string(sj) {
		return fmt.Errorf("plan diverges:\n server: %s\n local:  %s", sj, lj)
	}
	ev, err := yield.NewEvaluator(b.Graph, local.Spec, local.Groups)
	if err != nil {
		return err
	}
	rep, err := yield.EvaluateSweep(ev, mc.New(b.Graph, evalSeed), evalSamples, []float64{T})
	if err != nil {
		return err
	}
	if len(yld.Results) != 1 || len(yld.Results[0].Reports) != 1 {
		return errors.New("unexpected yield result shape")
	}
	rj, _ := json.Marshal(rep)
	gj, _ := json.Marshal(yld.Results[0].Reports[0])
	if string(rj) != string(gj) {
		return fmt.Errorf("yield report diverges:\n server: %s\n local:  %s", gj, rj)
	}

	// Adaptive probe: the same plan at an easy period (µ+3.5σ, both yields
	// ≈ 1) evaluated sequentially must stop after more than one wave, well
	// under the cap, and match the in-process wave loop byte for byte. The
	// eps is chosen so the first wave's interval is just too wide: the probe
	// always needs a second wave but an easy point never needs the cap.
	const (
		adaptiveCap  = 20000
		adaptiveEps  = 0.015
		adaptiveConf = 0.95
	)
	easy := b.Period.Mu + 3.5*b.Period.Sigma
	aQueries := []serve.YieldQuery{{Plan: ins.Plan, Periods: []float64{easy}}}
	ayld, err := cl.Yield(ctx, serve.YieldRequest{
		Circuit: spec, Options: opt, EvalSamples: adaptiveCap, Seed: evalSeed,
		Eps: adaptiveEps, Conf: adaptiveConf, Queries: aQueries,
	})
	if err != nil {
		return err
	}
	if len(ayld.Results) != 1 || len(ayld.Results[0].Adaptive) != 1 {
		return errors.New("unexpected adaptive yield result shape")
	}
	arep := ayld.Results[0].Adaptive[0]
	lres, err := serve.EvaluateQueriesAdaptive(b.Graph, evalSeed, adaptiveCap, aQueries,
		yield.Precision{Eps: adaptiveEps, Conf: adaptiveConf})
	if err != nil {
		return err
	}
	laj, _ := json.Marshal(lres[0].Adaptive[0])
	saj, _ := json.Marshal(arep)
	if string(laj) != string(saj) {
		return fmt.Errorf("adaptive report diverges:\n server: %s\n local:  %s", saj, laj)
	}
	if !arep.Met || arep.Waves < 2 || arep.SamplesUsed >= adaptiveCap {
		return fmt.Errorf("adaptive probe did not stop sequentially: %s", saj)
	}
	fmt.Printf("bufinsd check: adaptive probe ±%g used %d/%d chips in %d waves\n",
		adaptiveEps, arep.SamplesUsed, adaptiveCap, arep.Waves)
	return nil
}
