// Package core is the top-level API of the library: it ties the substrates
// together into the workflow a user actually runs —
//
//	load or generate a circuit
//	→ characterize its clock-period distribution under process variation
//	→ insert post-silicon tuning buffers for a target period (the paper's
//	  sampling-based three-step flow)
//	→ measure the yield improvement on fresh virtual chips
//	→ configure individual chips post-silicon.
//
// Everything here delegates to the specialized packages (gen, ssta, timing,
// mc, insertion, yield, tuner); core only owns the wiring and defaults, so
// a downstream user needs a single import for the common path and can drop
// to the underlying packages for research use.
package core

import (
	"fmt"
	"io"

	"repro/internal/ckt"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/timing"
	"repro/internal/tuner"
	"repro/internal/yield"
)

// System is a prepared circuit ready for buffer insertion: timing graph
// with injected hold-safe skews, placement, and the clock-period
// distribution (µT, σT).
type System struct {
	bench *expt.Bench
}

// Options forwards benchmark-preparation knobs (zero value = paper
// defaults: 3 % skew, 4000 period samples).
type Options = expt.Options

// NewSystem wraps an already-prepared Bench (for callers like the serving
// layer that cache Bench instances and re-wrap them per request; preparing
// is the expensive step, wrapping is free).
func NewSystem(b *expt.Bench) *System { return &System{bench: b} }

// FromCircuit prepares a System from an in-memory netlist.
func FromCircuit(c *ckt.Circuit, opt Options) (*System, error) {
	b, err := expt.Prepare(c, opt)
	if err != nil {
		return nil, err
	}
	return &System{bench: b}, nil
}

// FromBench parses an ISCAS89 .bench netlist and prepares a System.
func FromBench(r io.Reader, name string, opt Options) (*System, error) {
	c, err := ckt.ParseBench(r, name)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c, opt)
}

// FromPreset prepares one of the paper's Table I benchmark circuits
// (s9234 … pci_bridge32) regenerated at its published size.
func FromPreset(name string, opt Options) (*System, error) {
	b, err := expt.PreparePreset(name, opt)
	if err != nil {
		return nil, err
	}
	return &System{bench: b}, nil
}

// Generate synthesizes a circuit (see gen.Config) and prepares a System.
func Generate(cfg gen.Config, opt Options) (*System, error) {
	c, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c, opt)
}

// Name returns the circuit name.
func (s *System) Name() string { return s.bench.Name }

// Circuit returns the underlying netlist.
func (s *System) Circuit() *ckt.Circuit { return s.bench.Circuit }

// Graph returns the timing constraint graph.
func (s *System) Graph() *timing.Graph { return s.bench.Graph }

// PeriodMu returns µT, the mean required clock period without buffers.
func (s *System) PeriodMu() float64 { return s.bench.Period.Mu }

// PeriodSigma returns σT.
func (s *System) PeriodSigma() float64 { return s.bench.Period.Sigma }

// TargetPeriod returns µT + k·σT, the paper's Table I target grid.
func (s *System) TargetPeriod(k float64) float64 {
	return s.bench.Period.Mu + k*s.bench.Period.Sigma
}

// ResolveInsertConfig applies Insert's defaulting — cfg.T := T, a
// moderate sample budget, the fixed default seed — without running the
// flow. Callers that capture the configuration before running (the
// sharded coordinator's executor ships these exact fields over the wire)
// resolve through here so there is a single owner of the defaults.
func (s *System) ResolveInsertConfig(T float64, cfg insertion.Config) insertion.Config {
	cfg.T = T
	if cfg.Samples == 0 {
		cfg.Samples = 2000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xF00D
	}
	return cfg
}

// Insert runs the paper's sampling-based flow for the target period T.
// cfg.T is overwritten with T; other zero fields take paper defaults
// (τ = T/8, 20 steps, rt = 0.8, dt = 10, 0.1 % skip rule).
func (s *System) Insert(T float64, cfg insertion.Config) (*insertion.Result, error) {
	return insertion.Run(s.bench.Graph, s.bench.Placement, s.ResolveInsertConfig(T, cfg))
}

// MeasureYield evaluates original and buffered yield at period T over n
// fresh chips (a sample universe disjoint from the insertion seed).
func (s *System) MeasureYield(res *insertion.Result, T float64, n int, seed uint64) (yield.Report, error) {
	ev, err := yield.NewEvaluator(s.bench.Graph, res.Cfg.Spec, res.Groups)
	if err != nil {
		return yield.Report{}, err
	}
	if seed == 0 {
		seed = 0xD1CE
	}
	// A one-point sweep through the shared executor (yield.Drive): the
	// report is byte-identical to per-period evaluation at T.
	rep, err := yield.EvaluateSweep(ev, mc.New(s.bench.Graph, seed), n, []float64{T})
	if err != nil {
		return yield.Report{}, err
	}
	return rep.At(0), nil
}

// NewTuner builds the post-silicon configurator for an insertion result.
func (s *System) NewTuner(res *insertion.Result) (*tuner.Tuner, error) {
	return tuner.New(s.bench.Graph, res.Cfg.Spec, res.Groups)
}

// SampleChips materializes n virtual manufactured chips (deterministic in
// seed), for post-silicon configuration demos and tests.
func (s *System) SampleChips(n int, seed uint64) []*timing.Chip {
	eng := mc.New(s.bench.Graph, seed)
	chips := make([]*timing.Chip, n)
	for k := range chips {
		chips[k] = eng.Chip(k)
	}
	return chips
}

// Bench exposes the underlying experiment bench for advanced use.
func (s *System) Bench() *expt.Bench { return s.bench }

// Summary prints a one-paragraph description of the system.
func (s *System) Summary() string {
	st, err := s.bench.Circuit.ComputeStats()
	if err != nil {
		return s.bench.Name
	}
	return fmt.Sprintf("%s: %d FFs, %d gates (depth %d), %d FF pairs; µT=%.1f ps, σT=%.1f ps",
		s.bench.Name, st.FFs, st.Gates, st.Depth, len(s.bench.Graph.Pairs),
		s.bench.Period.Mu, s.bench.Period.Sigma)
}
