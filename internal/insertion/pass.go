package insertion

import (
	"context"
	"fmt"

	"repro/internal/mc"
	"repro/internal/timing"
)

// This file is the shard surface of the flow: every Monte Carlo pass is
// described by a PassSpec, executed over any k-range by PassRange, and the
// per-sample outcomes merge back by index. The contract that makes the
// distributed reduce mechanical is the mc seeding contract — chip k is
// deterministic in (Seed, k), never in pass position — so a coordinator
// tiling [0, Samples) across worker processes reproduces the in-process
// pass bit for bit.

// PassKind selects the solver formulation of one Monte Carlo pass.
type PassKind string

const (
	// PassFloating is the step-1 formulation: x ∈ [−τ, τ] continuous
	// floating windows, every FF allowed.
	PassFloating PassKind = "floating"
	// PassFixed is the fixed-window formulation: x ∈ {lower + k·s}
	// discrete, restricted to the pruning survivors (step 2 and the
	// intermediate §III-B1 re-run).
	PassFixed PassKind = "fixed"
)

// PassSpec describes one Monte Carlo pass of the flow precisely enough to
// execute it in another process: the formulation plus the pass-scoped
// vectors the coordinator derived from earlier passes. Together with the
// flow-keyed Config fields (T, Samples, Seed — Spec defaults from T), it
// is the wire contract of a sharded pass.
type PassSpec struct {
	Kind PassKind `json:"kind"`
	// Allowed lists the FF ids that may carry a buffer (the §III-A2
	// survivors). PassFixed only; nil means no FF is allowed. Ignored for
	// PassFloating, where every FF is allowed.
	Allowed []int `json:"allowed,omitempty"`
	// Lower holds the per-FF window lower bounds, length NS (PassFixed
	// only).
	Lower []float64 `json:"lower,omitempty"`
	// Center holds the per-FF concentration targets, length NS or nil
	// (zero targets).
	Center []float64 `json:"center,omitempty"`
}

// PassFunc executes one pass over the full sample range [0, cfg.Samples)
// and returns the k-indexed outcomes. Implementations must be
// byte-identical to the in-process pass — the contract the distributed
// coordinator (internal/serve) meets by tiling the range across workers
// that each run Runner.PassRange on the same prepared circuit.
type PassFunc func(spec PassSpec) ([]SampleOutcome, error)

// CheckOutcomes validates a pass's outcomes before they reduce: every
// tuned FF must lie in [0, ns). It is the insertion twin of
// yield.CheckWave — the coordinator runs it on every worker partial, and
// the flow on every Config.Pass result, so a malformed outcome is an
// error, never an index panic in the reduction.
func CheckOutcomes(ns int, outs []SampleOutcome) error {
	for k, out := range outs {
		for _, tn := range out.Tuned {
			if tn.FF < 0 || tn.FF >= ns {
				return fmt.Errorf("insertion: outcome %d tunes FF %d outside [0,%d)", k, tn.FF, ns)
			}
		}
	}
	return nil
}

// passParams translates a wire-form PassSpec into the solver-facing pass
// configuration. The translation is the same whether the pass runs in the
// coordinating process or a worker, which is what keeps the two paths
// byte-identical.
func (r *Runner) passParams(spec PassSpec) (mode solverMode, allowed []bool, lower, center []float64, err error) {
	ns := r.g.NS
	switch spec.Kind {
	case PassFloating:
		return modeFloating, nil, nil, nil, nil
	case PassFixed:
		if len(spec.Lower) != ns {
			return 0, nil, nil, nil, fmt.Errorf("insertion: fixed pass lower bounds have length %d, want %d", len(spec.Lower), ns)
		}
		if spec.Center != nil && len(spec.Center) != ns {
			return 0, nil, nil, nil, fmt.Errorf("insertion: fixed pass centers have length %d, want %d", len(spec.Center), ns)
		}
		allowed = make([]bool, ns)
		for _, ff := range spec.Allowed {
			if ff < 0 || ff >= ns {
				return 0, nil, nil, nil, fmt.Errorf("insertion: fixed pass allows FF %d outside [0,%d)", ff, ns)
			}
			allowed[ff] = true
		}
		return modeFixed, allowed, spec.Lower, spec.Center, nil
	}
	return 0, nil, nil, nil, fmt.Errorf("insertion: unknown pass kind %q", spec.Kind)
}

// collectRange solves samples [lo, hi) against one pass configuration and
// returns their outcomes indexed k−lo. Each worker goroutine owns a pooled
// solver; outcome Tuned slices are exact-size copies, never solver scratch.
// A non-nil cancelled ctx short-circuits the remaining samples' solver
// work (the dominant cost), so a cancelled pass releases its CPU within a
// few sample realizations; the caller discards the partial outcomes.
//
//contract:allocfree
func (r *Runner) collectRange(ctx context.Context, src mc.Source, cfg Config, mode solverMode, allowed []bool, lower, center []float64, lo, hi int) []SampleOutcome {
	//lint:ignore contract:allocfree per-wave outcome buffer: O(range) header amortized over the samples
	raw := make([]SampleOutcome, hi-lo)
	//lint:ignore contract:allocfree the consume closure escapes once per wave, not per sample
	src.ForEachRangeBatch(lo, hi, func(k int, ch *timing.Chip) {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		sv := r.checkout(cfg, mode, allowed, lower, center)
		out := sv.solve(ch)
		if len(out.Tuned) > 0 {
			// out.Tuned aliases solver scratch that the next sample on this
			// worker overwrites; keep an exact-size copy.
			//lint:ignore contract:allocfree exact-size copy outlives solver scratch reuse; only tuned samples pay it
			out.Tuned = append([]Tuning(nil), out.Tuned...)
		}
		raw[k-lo] = out
		r.release(sv)
	})
	return raw
}

// PassRange executes one pass over the sample sub-range [lo, hi) under
// ctx: the worker half of the sharded sample loop. cfg must carry the
// coordinating flow's T, Samples, and Seed (Samples is the full-range
// count; it bounds the range and scales the defaulted thresholds exactly
// as it does for the coordinator). The returned outcomes are indexed k−lo
// and are byte-identical to the slice an in-process pass would hold at
// [lo, hi).
//
// ctx may be nil (no cancellation). When ctx ends mid-pass — the
// coordinator cancelled a hedged duplicate, the client went away, a
// deadline expired — the remaining samples skip their solver work and
// PassRange returns ctx.Err() instead of a partial result, releasing the
// worker's CPU promptly instead of leaking minutes of solver work.
//
//contract:allocfree
func (r *Runner) PassRange(ctx context.Context, cfg Config, spec PassSpec, lo, hi int) ([]SampleOutcome, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if lo < 0 || hi > cfg.Samples || lo > hi {
		//lint:ignore contract:allocfree cold validation error path
		return nil, fmt.Errorf("insertion: pass range [%d,%d) outside [0,%d)", lo, hi, cfg.Samples)
	}
	mode, allowed, lower, center, err := r.passParams(spec)
	if err != nil {
		return nil, err
	}
	eng := mc.New(r.g, cfg.Seed)
	eng.Workers = cfg.Workers
	out := r.collectRange(ctx, eng, cfg, mode, allowed, lower, center, lo, hi)
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return out, nil
}
