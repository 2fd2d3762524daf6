#!/usr/bin/env bash
# ci.sh — the full verification gate: format, vet, build, tests, service
# smokes (single daemon + distributed coordinator/worker trio), a
# one-iteration smoke of the substrate microbenchmarks, optional fuzzing,
# and the bench regression gate. Run from anywhere.
#
# Usage: scripts/ci.sh [stage]
#   all     (default) every stage below
#   verify  fmt + vet + build + test + smokes + bench gate (no fuzz, no race)
#   lint    contract analyzers (cmd/contractlint as a go vet -vettool):
#           determinism, allocfree, ctxpass, errclass — see DESIGN.md
#           "Static contracts"
#   race    tier-1 tests under the race detector, plus 20 rounds of the
#           shard dispatch tests
#   fuzz    solver-equivalence fuzzing (implies CI_FUZZ=on)
#   chaos   coordinator + 2 workers with one chaos-wrapped transport: the
#           -check probe must stay byte-identical under a fixed fault seed
#   store   persistent prepared-bench store smoke: prepare with -store, kill
#           the daemon, restart over the same directory, and require -check
#           to answer byte-identically from store hits (no re-prepare)
# The stages exist so the GitHub workflow can fan them out as parallel jobs
# while local runs keep the single-command gate.
#
# CI_OUT, when set, is a directory that collects diagnosable artifacts:
# daemon smoke logs, the fresh bench JSON, and the benchcmp verdict — the
# workflow uploads it when a job fails.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
case "$stage" in
all | verify | lint | race | fuzz | chaos | store) ;;
*)
    echo "usage: scripts/ci.sh [all|verify|lint|race|fuzz|chaos|store]" >&2
    exit 2
    ;;
esac

if [ -n "${CI_OUT:-}" ]; then
    mkdir -p "$CI_OUT"
fi

# save_artifact <file> <name> — copy a diagnosable file into CI_OUT.
save_artifact() {
    if [ -n "${CI_OUT:-}" ] && [ -f "$1" ]; then
        cp "$1" "$CI_OUT/$2" || true
    fi
}

# Service-smoke machinery, shared by the verify smokes and the chaos stage.
smokedir=""
smokepids=""

# Collect every smoke log into CI_OUT before cleanup, whether the gate
# passes or dies mid-smoke.
cleanup_smoke() {
    [ -n "$smokedir" ] || return 0
    for f in "$smokedir"/*.log; do
        [ -f "$f" ] && save_artifact "$f" "$(basename "$f")"
    done
    # shellcheck disable=SC2086
    kill $smokepids 2>/dev/null || true
    smokepids=""
    rm -rf "$smokedir"
    smokedir=""
}

# setup_smoke — fresh scratch dir + bufinsd binary + cleanup trap.
setup_smoke() {
    smokedir=$(mktemp -d)
    smokepids=""
    trap cleanup_smoke EXIT
    go build -o "$smokedir/bufinsd" ./cmd/bufinsd
}

# start_daemon <name> <extra flags...> — boot a bufinsd on an ephemeral
# port and wait for its address file; the resolved base URL lands in
# $daemon_url. (Runs in the main shell so the pid is ours to kill —
# command substitution would orphan the daemon in a subshell.)
start_daemon() {
    name="$1"
    shift
    "$smokedir/bufinsd" -addr 127.0.0.1:0 -addr-file "$smokedir/$name.addr" "$@" \
        >"$smokedir/$name.log" 2>&1 &
    smokepids="$smokepids $!"
    for _ in $(seq 100); do
        [ -s "$smokedir/$name.addr" ] && break
        sleep 0.1
    done
    if [ ! -s "$smokedir/$name.addr" ]; then
        cat "$smokedir/$name.log" >&2
        echo "bufinsd ($name) failed to start" >&2
        exit 1
    fi
    daemon_url="http://$(cat "$smokedir/$name.addr")"
}

if [ "$stage" = "race" ]; then
    echo "== tier-1 under the race detector =="
    go test -race ./...
    echo "== shard dispatch tokens under the race detector, 20 rounds =="
    # Token accounting (window, breaker withdrawal, hedges) is
    # concurrency-heavy, and one pass rarely hits its interleavings.
    go test -race -count 20 ./internal/shard/...
    echo "CI OK (race)"
    exit 0
fi

if [ "$stage" = "all" ] || [ "$stage" = "lint" ]; then
    echo "== contract lint (go vet -vettool=contractlint) =="
    # The contract analyzers turn DESIGN.md invariants into diagnostics:
    # determinism (byte-identical path), allocfree (annotated warm solves),
    # ctxpass (cancellable shard dispatch), errclass (class-preserving
    # wraps). Findings land in CI_OUT for the workflow to upload.
    lintdir=$(mktemp -d)
    trap 'rm -rf "$lintdir"' EXIT
    go build -o "$lintdir/contractlint" ./cmd/contractlint
    lint_status=0
    go vet -vettool="$lintdir/contractlint" ./... 2>"$lintdir/findings.txt" || lint_status=$?
    if [ -s "$lintdir/findings.txt" ]; then
        cat "$lintdir/findings.txt" >&2
    fi
    save_artifact "$lintdir/findings.txt" "contractlint-findings.txt"
    rm -rf "$lintdir"
    trap - EXIT
    if [ "$lint_status" -ne 0 ]; then
        echo "contract lint failed" >&2
        exit "$lint_status"
    fi

    echo "== oracle packages stay out of the binaries =="
    # internal/lp and internal/milp are the test-only oracle of the
    # per-sample repair: no command may link either (DESIGN.md "Oracles").
    deps=$(go list -deps ./cmd/...)
    for oracle in repro/internal/lp repro/internal/milp; do
        if grep -qx "$oracle" <<<"$deps"; then
            echo "a command links $oracle, a test-only oracle" >&2
            exit 1
        fi
    done
fi

if [ "$stage" = "lint" ]; then
    echo "CI OK (lint)"
    exit 0
fi

if [ "$stage" = "fuzz" ]; then
    CI_FUZZ=on
fi

if [ "$stage" = "all" ] || [ "$stage" = "verify" ]; then
    echo "== gofmt =="
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "files need gofmt:" >&2
        echo "$unformatted" >&2
        exit 1
    fi

    echo "== go vet =="
    go vet ./...

    echo "== go build =="
    go build ./...

    echo "== go test =="
    go test ./...

    echo "== perfbench (own module: vet + smoke test) =="
    (cd perfbench && go vet ./... && go test ./...)

    setup_smoke

    echo "== service smoke (bufinsd) =="
    # Single daemon: the probe prepares + inserts a tiny generated circuit
    # through the HTTP API and verifies the plan, yield report, and adaptive
    # (eps-bounded) report are byte-identical to the in-process flow;
    # -expect-waves asserts via /metrics that the adaptive probe genuinely
    # ran multiple waves and stopped early (samples_used < samples_requested).
    start_daemon single
    single_pid=$!
    "$smokedir/bufinsd" -check "$daemon_url" -expect-waves

    echo "== oversized prepare smoke =="
    # A prepare over the size limits gets 400 every time (it must not
    # poison the bench entry of its key), and the daemon stays healthy.
    for attempt in 1 2; do
        code=$(curl -s -o "$smokedir/oversized-$attempt.log" -w '%{http_code}' \
            -H 'Content-Type: application/json' \
            -d '{"circuit":{"gen":{"NumFFs":4611686018427387904,"NumGates":10}}}' \
            "$daemon_url/v1/prepare") || code=000
        if [ "$code" != 400 ]; then
            cat "$smokedir/oversized-$attempt.log" >&2 || true
            echo "oversized prepare attempt $attempt: HTTP $code, want 400" >&2
            exit 1
        fi
    done
    if ! curl -sf -o /dev/null "$daemon_url/healthz"; then
        echo "daemon unhealthy after the oversized prepares" >&2
        exit 1
    fi

    echo "== interrupt smoke (yieldeval -server) =="
    # ^C must end a -server run promptly: the client abandons its in-flight
    # request (a multi-second s9234 insertion) and exits non-zero within 3 s
    # instead of waiting for the daemon's answer.
    go build -o "$smokedir/yieldeval" ./cmd/yieldeval
    "$smokedir/yieldeval" -preset s9234 -samples 20000 -eval 20000 -server "$daemon_url" \
        >/dev/null 2>"$smokedir/yieldeval-interrupt.log" &
    ye_pid=$!
    sleep 2
    kill -INT "$ye_pid" 2>/dev/null || true
    for _ in $(seq 30); do
        kill -0 "$ye_pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$ye_pid" 2>/dev/null; then
        kill -KILL "$ye_pid"
        echo "yieldeval -server still running 3 s after SIGINT" >&2
        exit 1
    fi
    ye_status=0
    wait "$ye_pid" || ye_status=$?
    if [ "$ye_status" -eq 0 ] || ! grep -q 'context canceled' "$smokedir/yieldeval-interrupt.log"; then
        cat "$smokedir/yieldeval-interrupt.log" >&2
        echo "interrupted yieldeval -server exited $ye_status, want non-zero with 'context canceled'" >&2
        exit 1
    fi
    # The abandoned insertion keeps the daemon busy; free the CPU for the
    # smokes below.
    kill -KILL "$single_pid"

    echo "== distributed smoke (1 coordinator + 2 workers) =="
    # Coordinator/worker trio on ephemeral ports: the same -check probe
    # against the coordinator proves sharded /v1/insert and /v1/yield are
    # byte-identical to the in-process flow, -expect-shards asserts the
    # answers actually travelled through the workers (dispatch counters on
    # /metrics), not the local fallback, and -expect-waves asserts the
    # adaptive probe dispatched >1 wave and stopped under its sample cap.
    start_daemon worker1 -worker
    w1="$daemon_url"
    start_daemon worker2 -worker
    w2="$daemon_url"
    start_daemon coordinator -workers "$w1,$w2" -shards 6
    "$smokedir/bufinsd" -check "$daemon_url" -expect-shards -expect-waves

    cleanup_smoke
    trap - EXIT

    echo "== bench smoke (substrates, 1 iteration) =="
    go test -run '^$' \
        -bench 'LPSolve|MILPMinCount|SampleSolve|DiffconFeasibility|SSTAPairDelays|SSTAPrepareCold|SSTARepropagateCone|ChipRealization|YieldSweep|AdaptiveYield|ShardWire' \
        -benchtime=1x .
    go test -run '^$' -bench 'ServeWarmQuery|ServeColdPrepare|ShardedYieldSweep' -benchtime=1x ./internal/serve
fi

if [ "$stage" = "all" ] || [ "$stage" = "chaos" ]; then
    echo "== chaos smoke (1 coordinator + 2 workers, one fault-injected) =="
    # Same trio as the distributed smoke, but the coordinator's transport to
    # worker2 runs behind a deterministic fault schedule (fixed seed, ~1/3 of
    # requests dropped/delayed/500'd/429'd/reset/truncated/corrupted). The
    # -check probe must still come back byte-identical to the in-process
    # flow, and -expect-shards proves the answers travelled through the
    # pool: every fault was retried, hedged, or drained — never merged.
    setup_smoke
    start_daemon chaos-worker1 -worker
    w1="$daemon_url"
    start_daemon chaos-worker2 -worker
    w2="$daemon_url"
    start_daemon chaos-coordinator -workers "$w1,$w2" -shards 6 \
        -chaos-worker "$w2" -chaos-seed 7 -chaos-rate 0.35 \
        -chaos-faults drop,delay,500,429,reset,truncate,corrupt \
        -range-timeout 1s -retries 8
    "$smokedir/bufinsd" -check "$daemon_url" -expect-shards

    echo "== chaos smoke (truncate-mid-frame) =="
    # Truncation-only schedule against the default binary framing: a short
    # frame must be classified corrupt by the wire decoder (counted, then
    # retried on a clean attempt) — never a panic, never a partial batch
    # merged. The echoed counters prove truncation actually fired and that
    # the decoder classified at least one short frame as corrupt.
    start_daemon trunc-worker1 -worker
    w1="$daemon_url"
    start_daemon trunc-worker2 -worker
    w2="$daemon_url"
    start_daemon trunc-coordinator -workers "$w1,$w2" -shards 6 \
        -chaos-worker "$w2" -chaos-seed 7 -chaos-rate 0.35 \
        -chaos-faults truncate -range-timeout 1s -retries 8
    "$smokedir/bufinsd" -check "$daemon_url" -expect-shards | tee "$smokedir/trunc-check.out"
    grep -q 'bufinsd_chaos_injected_total{kind="truncate"} [1-9]' "$smokedir/trunc-check.out" ||
        { echo "chaos schedule never truncated a frame" >&2; exit 1; }
    grep -Eq 'bufinsd_shard_corrupt_total [1-9]' "$smokedir/trunc-check.out" ||
        { echo "no truncated frame classified corrupt" >&2; exit 1; }

    cleanup_smoke
    trap - EXIT
fi

if [ "$stage" = "chaos" ]; then
    echo "CI OK (chaos)"
    exit 0
fi

if [ "$stage" = "all" ] || [ "$stage" = "store" ]; then
    echo "== store smoke (prepare, kill, restart, re-attach) =="
    # First life: a daemon with -store persists the prepared bench on the
    # probe's first prepare. The directory outlives the process: after a
    # kill, a second life over the same -store must answer -check
    # byte-identically from a store hit with zero misses (-expect-store),
    # proving the restart re-attached instead of re-running the SSTA.
    setup_smoke
    storedir="$smokedir/store"
    start_daemon store-first -store "$storedir"
    "$smokedir/bufinsd" -check "$daemon_url"
    # shellcheck disable=SC2086
    kill $smokepids 2>/dev/null || true
    # shellcheck disable=SC2086
    wait $smokepids 2>/dev/null || true
    smokepids=""
    start_daemon store-second -store "$storedir"
    "$smokedir/bufinsd" -check "$daemon_url" -expect-store
    cleanup_smoke
    trap - EXIT
fi

if [ "$stage" = "store" ]; then
    echo "CI OK (store)"
    exit 0
fi

if [ "$stage" = "all" ] || [ "$stage" = "fuzz" ]; then
    echo "== fuzz (solver equivalence, chip stream, wire and .bench round-trip, short budget) =="
    # Cross-check the compact simplex layout bit for bit against the
    # full-artificial reference, branch-and-bound on a reused arena against
    # a fresh arena and the brute-force oracle, the exact per-component
    # tuning count and projection against the test-only two-ILP oracle
    # (milp's branch-and-bound, which no binary links), the projection's
    # min-cost flow solver alone against the simplex (optimal, feasible,
    # integral on the grid, componentwise least), and
    # the integer difference-constraint solver (diffcon.IntSystem, which the
    # sweep's rescue probes and countMin run on) on its own invariants;
    # pin the chip realization stream (timing.Stream) bit for bit to
    # math/rand/v2 over fuzzed seeds and call patterns, its jump-ahead
    # (Stream.Advance) to single steps, the chips' zero-tuning certificates
    # to the exact scans on fuzzed chips, and the incremental what-if
    # period to the full Monte Carlo on fuzzed edit sets; hammer
    # the shard wire decoders with arbitrary frames, and feed the .bench
    # parser arbitrary netlist text (each must reject or round-trip, never
    # panic). Off by default (it adds ~12x CI_FUZZ_TIME of wall time); the
    # CI workflow enables it.
    if [ "${CI_FUZZ:-off}" = "on" ]; then
        fuzztime="${CI_FUZZ_TIME:-10s}"
        go test -run '^$' -fuzz 'FuzzCompactLayout' -fuzztime "$fuzztime" ./internal/lp
        go test -run '^$' -fuzz 'FuzzSolveArenaWarm' -fuzztime "$fuzztime" ./internal/milp
        go test -run '^$' -fuzz 'FuzzComponentCount' -fuzztime "$fuzztime" ./internal/insertion
        go test -run '^$' -fuzz 'FuzzL1Flow' -fuzztime "$fuzztime" ./internal/insertion
        go test -run '^$' -fuzz 'FuzzIntegralPruning' -fuzztime "$fuzztime" ./internal/milp
        go test -run '^$' -fuzz 'FuzzIntSystem' -fuzztime "$fuzztime" ./internal/diffcon
        go test -run '^$' -fuzz '^FuzzStream$' -fuzztime "$fuzztime" ./internal/timing
        go test -run '^$' -fuzz 'FuzzStreamAdvance' -fuzztime "$fuzztime" ./internal/timing
        go test -run '^$' -fuzz 'FuzzZeroCert' -fuzztime "$fuzztime" ./internal/timing
        go test -run '^$' -fuzz 'FuzzWhatIfPeriod' -fuzztime "$fuzztime" ./internal/expt
        go test -run '^$' -fuzz 'FuzzWireRoundTrip' -fuzztime "$fuzztime" ./internal/serve
        go test -run '^$' -fuzz 'FuzzParseBench' -fuzztime "$fuzztime" ./internal/ckt
    else
        echo "skipped (CI_FUZZ=off)"
    fi
fi

if [ "$stage" = "fuzz" ]; then
    echo "CI OK (fuzz)"
    exit 0
fi

echo "== bench gate (vs committed BENCH_*.json) =="
# Compare a fresh benchmark run against the latest committed numbers and
# fail on ns/op regressions beyond BENCH_GATE_NS (default 0.30 = 30 %) or
# any allocs/op regression in the warm benchmarks. BENCH_GATE=off skips
# entirely; machines unlike the one that produced the committed file should
# widen BENCH_GATE_NS instead (the allocs gate stays meaningful anywhere).
# BENCH_GATE_TIME tunes the per-benchmark time budget. benchcmp writes its
# verdict JSON into CI_OUT (and, under GitHub Actions, appends a markdown
# verdict to the step summary).
baseline=$(ls -1 BENCH_*.json 2>/dev/null | sort | tail -n1 || true)
if [ "${BENCH_GATE:-on}" = "off" ]; then
    echo "skipped (BENCH_GATE=off)"
elif [ -z "$baseline" ]; then
    echo "no committed BENCH_*.json; skipping"
else
    fresh=$(mktemp)
    trap 'rm -f "$fresh"' EXIT
    # BENCH_SERVE=off: the informational serve/shard loopback benches are
    # not part of the gate and already ran in the bench smoke above.
    BENCH_TIME="${BENCH_GATE_TIME:-0.3s}" BENCH_SERVE=off scripts/bench.sh "$fresh" >/dev/null
    save_artifact "$fresh" "bench-fresh.json"
    gate_json=""
    if [ -n "${CI_OUT:-}" ]; then
        gate_json="$CI_OUT/benchgate.json"
    fi
    go run ./cmd/benchcmp -max-ns-regress "${BENCH_GATE_NS:-0.30}" \
        ${gate_json:+-json "$gate_json"} "$baseline" "$fresh"
fi

echo "CI OK"
