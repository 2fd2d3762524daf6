// Package serve is the long-running insertion service: it caches fully
// prepared benchmark instances (expt.PreparePreset costs seconds of SSTA;
// a warm insertion query costs a fraction of a second), owns per-circuit
// pools of warm sample solvers (insertion.Runner) and shared chip
// populations (mc.Population), and answers (circuit, T, budget) insertion
// and yield queries over HTTP/JSON.
//
// Endpoints:
//
//	POST /v1/prepare  — warm the bench cache for a circuit × options
//	POST /v1/insert   — run (or replay from cache) the insertion flow
//	POST /v1/yield    — evaluate plans/strategies over period sweeps
//	POST /v1/shard/insert-pass, /v1/shard/yield-pass — one sample range of
//	                    a coordinated pass (binary frames only, see wire.go)
//	GET  /healthz     — liveness + uptime
//	GET  /metrics     — Prometheus-style counters
//
// Every response that the batch tools also compute is byte-identical to
// the in-process path: the service runs exactly the same deterministic
// code on the same seeds, it just keeps the expensive state warm.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/ckt"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/shard"
	"repro/internal/yield"
)

// CircuitSpec identifies a circuit. Exactly one of Preset, Bench, Gen
// must be set.
type CircuitSpec struct {
	// Preset names one of the paper's Table I circuits (e.g. "s9234").
	Preset string `json:"preset,omitempty"`
	// Bench is an inline ISCAS89 .bench netlist.
	Bench string `json:"bench,omitempty"`
	// BenchName is the fallback circuit name when Bench text has no
	// "# name" comment (default "inline"). Clients loading a netlist from
	// a file pass the path here so server-side plans and summaries carry
	// the same name as the in-process path. Ignored for Preset/Gen.
	BenchName string `json:"bench_name,omitempty"`
	// Gen synthesizes a circuit (see gen.Config). Defaulted fields are
	// part of the cache key as given, so send a stable config.
	Gen *gen.Config `json:"gen,omitempty"`
}

// Key returns the deterministic cache-key fragment of the circuit.
func (cs CircuitSpec) Key() (string, error) {
	switch {
	case cs.Preset != "" && cs.Bench == "" && cs.Gen == nil:
		return "preset:" + cs.Preset, nil
	case cs.Bench != "" && cs.Preset == "" && cs.Gen == nil:
		// BenchName is part of the key: it can flow into the circuit name
		// and from there into every response.
		sum := sha256.Sum256([]byte(cs.Bench))
		return "bench:" + hex.EncodeToString(sum[:16]) + ":" + cs.BenchName, nil
	case cs.Gen != nil && cs.Preset == "" && cs.Bench == "":
		return fmt.Sprintf("gen:%+v", *cs.Gen), nil
	}
	return "", fmt.Errorf("serve: circuit spec needs exactly one of preset, bench, gen")
}

// Build materializes the netlist.
func (cs CircuitSpec) Build() (*ckt.Circuit, error) {
	switch {
	case cs.Preset != "":
		p, err := gen.PresetByName(cs.Preset)
		if err != nil {
			return nil, err
		}
		return p.Build()
	case cs.Bench != "":
		fallback := cs.BenchName
		if fallback == "" {
			fallback = "inline"
		}
		return ckt.ParseBenchString(cs.Bench, fallback)
	case cs.Gen != nil:
		return gen.Generate(*cs.Gen)
	}
	return nil, fmt.Errorf("serve: empty circuit spec")
}

// PrepareRequest warms (or probes) the bench cache. With WhatIf edits it
// becomes a question instead of a warm-up: the period distribution is
// re-derived on a fork of the cached bench via incremental cone
// repropagation, and the perturbed state is discarded — what-if probes
// never insert anything into the bench LRU, so sweeping candidate edits
// cannot thrash the cache of real prepared circuits.
type PrepareRequest struct {
	Circuit CircuitSpec  `json:"circuit"`
	Options expt.Options `json:"options"`
	// WhatIf, when non-empty, reports the bench as re-analyzed under these
	// delay edits (the base bench is still prepared and cached as usual).
	WhatIf []expt.Edit `json:"what_if,omitempty"`
}

// PrepareResponse describes the prepared bench. Under a what-if request,
// Mu/Sigma/HoldViolRate describe the edited circuit (WhatIf is set and
// Cached reports the base bench's cache status); Summary always describes
// the unedited base bench.
type PrepareResponse struct {
	Key          string  `json:"key"`
	Name         string  `json:"name"`
	Summary      string  `json:"summary"`
	NS           int     `json:"ns"`
	NG           int     `json:"ng"`
	Mu           float64 `json:"mu_ps"`
	Sigma        float64 `json:"sigma_ps"`
	HoldViolRate float64 `json:"hold_viol_rate"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	Cached       bool    `json:"cached"`
	WhatIf       bool    `json:"what_if,omitempty"`
}

// InsertRequest asks for an insertion plan at one period target.
type InsertRequest struct {
	Circuit CircuitSpec  `json:"circuit"`
	Options expt.Options `json:"options"`
	// TargetK selects the period µT + k·σT; Period overrides it with an
	// explicit value in ps. Exactly one must be set.
	TargetK *float64 `json:"target_k,omitempty"`
	Period  *float64 `json:"period_ps,omitempty"`
	// Samples is the insertion Monte Carlo budget (required, > 0).
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
	// MaxBuffers caps the physical buffer count (0 = uncapped).
	MaxBuffers int `json:"max_buffers,omitempty"`
	// Workers bounds the solve parallelism (0 = all cores; the server
	// clamps it to [0, GOMAXPROCS]).
	Workers int `json:"workers,omitempty"`
}

// InsertStats is the subset of flow diagnostics a service client needs.
type InsertStats struct {
	Samples          int     `json:"samples"`
	ZeroViolation    int     `json:"zero_violation"`
	InfeasibleStep1  int     `json:"infeasible_step1"`
	InfeasibleStep2  int     `json:"infeasible_step2"`
	SelfLoopFailures int     `json:"self_loop_failures"`
	MissingFrac      float64 `json:"missing_frac"`
	SkippedB1        bool    `json:"skipped_b1"`
}

// InsertResponse carries the durable plan plus summary numbers.
type InsertResponse struct {
	Plan      insertion.Plan `json:"plan"`
	T         float64        `json:"t_ps"`
	Nb        int            `json:"nb"`
	Ab        float64        `json:"ab_steps"`
	Stats     InsertStats    `json:"stats"`
	ElapsedMS int64          `json:"elapsed_ms"`
	Cached    bool           `json:"cached"`
}

// YieldQuery evaluates one plan (or the strategy set around it) across a
// period sweep.
type YieldQuery struct {
	// Plan supplies the buffer spec and groups (insert response plans can
	// be passed through verbatim). It is validated; a malformed plan fails
	// the request with 400.
	Plan insertion.Plan `json:"plan"`
	// Periods is the sorted ascending sweep; empty means [Plan.T].
	Periods []float64 `json:"periods,omitempty"`
	// Strategies expands the query into the baseline comparison set
	// (sampling, topk, randk, everyFF) at the plan's buffer budget.
	Strategies bool `json:"strategies,omitempty"`
	// StrategySeed seeds the randk baseline (only with Strategies).
	StrategySeed uint64 `json:"strategy_seed,omitempty"`
}

// YieldRequest evaluates a batch of queries over one shared chip
// population: every sweep of every query is answered from a single
// realization pass, exactly like yield.EvaluateMany in-process.
type YieldRequest struct {
	Circuit CircuitSpec  `json:"circuit"`
	Options expt.Options `json:"options"`
	// EvalSamples is the fresh-chip count (required, > 0).
	EvalSamples int `json:"eval_samples"`
	// Seed selects the evaluation universe (use insertion seed + 0x1000
	// for the paper's out-of-sample convention).
	Seed    uint64       `json:"seed"`
	Queries []YieldQuery `json:"queries"`
	// Eps switches the request to adaptive (sequential) evaluation: samples
	// arrive in escalating waves until every queried threshold's yield is
	// known to ±Eps at confidence Conf (default 0.95), capped at
	// EvalSamples. Results then carry Adaptive reports (estimate,
	// half_width, samples_used) instead of exact-count Reports. Unset (or
	// 0), the fixed-n path runs and responses stay byte-identical to
	// servers without adaptive support.
	Eps  float64 `json:"eps,omitempty"`
	Conf float64 `json:"conf,omitempty"`
}

// YieldResult is one query's answer: parallel Names/Reports slices (a
// single-element pair unless Strategies was set). Adaptive requests fill
// Adaptive (parallel to Names) instead of Reports.
type YieldResult struct {
	Names    []string               `json:"names"`
	Reports  []yield.SweepReport    `json:"reports,omitempty"`
	Adaptive []yield.AdaptiveReport `json:"adaptive,omitempty"`
}

// YieldResponse carries the per-query results in request order.
type YieldResponse struct {
	Results   []YieldResult `json:"results"`
	ElapsedMS int64         `json:"elapsed_ms"`
}

// InsertPassRequest executes one insertion-flow Monte Carlo pass over the
// contiguous sample range Range on a shard worker. The worker answers from
// its own warm prepared-bench LRU (same Circuit × Options key as every
// other endpoint), re-seeds its PCG streams from (Seed, k) exactly as the
// coordinator's engine would, and returns the k-indexed outcomes — so
// coordinator-side merging is pure placement and the reduced flow result
// is byte-identical to a single-process run.
//
// The request carries every solver-affecting Config field — not just the
// keyed ones — so a coordinating flow with non-default solver settings
// (custom buffer spec, ablations, component cap) behaves identically on a
// worker and in the coordinator's local fallback. Zero values take the
// same documented defaults on both sides (the spec defaults from T).
type InsertPassRequest struct {
	Circuit CircuitSpec  `json:"circuit"`
	Options expt.Options `json:"options"`
	T       float64      `json:"t_ps"`
	Samples int          `json:"samples"`
	Seed    uint64       `json:"seed"`
	// Workers bounds the solve parallelism (0 = all cores; clamped to
	// [0, GOMAXPROCS] like InsertRequest.Workers).
	Workers int `json:"workers,omitempty"`
	// Spec is the buffer hardware (zero = default τ=T/8, 20 steps).
	Spec insertion.BufferSpec `json:"spec,omitempty"`
	// MaxComponent caps the per-sample closure (0 = default 64).
	MaxComponent int `json:"max_component,omitempty"`
	// NoConcentration skips the concentration step (ablation).
	NoConcentration bool               `json:"no_concentration,omitempty"`
	Pass            insertion.PassSpec `json:"pass"`
	Range           shard.Range        `json:"range"`
}

// InsertPassResponse carries one range's per-sample outcomes, indexed
// k − Range.Lo.
type InsertPassResponse struct {
	Outcomes  []insertion.SampleOutcome `json:"outcomes"`
	ElapsedMS int64                     `json:"elapsed_ms"`
}

// YieldPassRequest evaluates a yield query batch over the contiguous chip
// range Range on a shard worker: the worker expands Queries into the same
// flattened sweep list the coordinator builds (the expansion is
// deterministic, including the seeded randk baseline) and returns one
// mergeable tally per sweep.
type YieldPassRequest struct {
	Circuit     CircuitSpec  `json:"circuit"`
	Options     expt.Options `json:"options"`
	EvalSamples int          `json:"eval_samples"`
	Seed        uint64       `json:"seed"`
	Queries     []YieldQuery `json:"queries"`
	Range       shard.Range  `json:"range"`
	// ZeroOnly asks for a zero-only tally (step-1 search, no rescue solver;
	// FirstTuned omitted) — the cheap wave kind of adaptive dispatch.
	ZeroOnly bool `json:"zero_only,omitempty"`
	// Strata stratifies the worker's sample universe (mc.Engine.Stratify)
	// and, when > 1, shapes each tally into one histogram per stratum
	// (yield.WaveTally); 0 means the plain universe and pooled tallies, as
	// every fixed-n pass uses.
	Strata int `json:"strata,omitempty"`
}

// YieldPassResponse carries the per-sweep partial tallies in the flattened
// query-expansion order.
type YieldPassResponse struct {
	Tallies   []yield.SweepTally `json:"tallies"`
	ElapsedMS int64              `json:"elapsed_ms"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
