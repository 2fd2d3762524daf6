// Package insertion implements the paper's contribution: the sampling-based
// three-step flow that decides where to insert post-silicon clock tuning
// buffers and what discrete range each needs (Fig. 3).
//
// Step 1 (§III-A): per Monte-Carlo sample, the minimum number of buffers
// needed to meet the target period with floating range windows is found,
// then tuning values are concentrated toward zero under that count (the
// paper's ILPs (15) and (19)); aggregated counts prune unhelpful buffers
// and a sliding window fixes each survivor's lower bound.
//
// Step 2 (§III-B): the sampling re-runs with fixed discrete windows (the
// 0.1 % skip rule avoids the re-run when step 1's values already fit), the
// concentration pulls values toward their average, and final ranges are
// the observed min/max.
//
// Neither per-sample ILP runs. Each violation component is repaired
// exactly and combinatorially: the count (15) by support enumeration over
// difference constraints, the concentration (19) by projecting the centers
// onto every feasible support of that size (the dual of a min-cost flow
// when more than one FF moves). The paper's two ILPs survive only as the test
// oracle the repair is checked against (DESIGN.md, "Combinatorial repair"
// and "Oracles").
//
// Step 3 (§III-C): buffers with mutually correlated tuning values within a
// Manhattan-distance threshold merge into one physical buffer.
package insertion

import (
	"fmt"
	"math"
)

// BufferSpec describes the available tuning buffer hardware: the maximum
// configurable range τ and the number of discrete steps. The paper uses
// τ = T/8 with 20 steps [4].
type BufferSpec struct {
	MaxRange float64 // τ, in ps
	Steps    int     // discrete positions = Steps+1 over [r, r+τ]
}

// Step returns the grid step s = τ / Steps.
func (b BufferSpec) Step() float64 { return b.MaxRange / float64(b.Steps) }

// Validate checks the spec.
func (b BufferSpec) Validate() error {
	if b.MaxRange <= 0 {
		return fmt.Errorf("insertion: non-positive buffer range %v", b.MaxRange)
	}
	if b.Steps < 1 {
		return fmt.Errorf("insertion: need at least 1 step, got %d", b.Steps)
	}
	return nil
}

// DefaultSpec returns the paper's buffer for a clock period T: range T/8,
// 20 discrete steps.
func DefaultSpec(T float64) BufferSpec {
	return BufferSpec{MaxRange: T / 8, Steps: 20}
}

// Config controls the flow.
type Config struct {
	// T is the target clock period the yield is improved for.
	T float64
	// Spec is the available buffer hardware.
	Spec BufferSpec
	// Samples is the number of insertion-phase Monte Carlo samples
	// (the paper uses 10 000).
	Samples int
	// Seed selects the sample universe.
	Seed uint64

	// PruneMax: buffers tuned in at most this many samples are pruning
	// candidates (paper: 1 at 10 000 samples). Scaled when ≤ 0.
	PruneMax int
	// CriticalMin: a pruning candidate adjacent to a buffer tuned at least
	// this often survives (paper: 5 at 10 000 samples). Scaled when ≤ 0.
	CriticalMin int
	// SkipRerunFrac is the step-2 skip rule: when fewer than this fraction
	// of samples have step-1 tunings outside the fixed windows, the
	// fixed-bound count minimization is skipped (paper: 0.001).
	SkipRerunFrac float64
	// CorrThreshold rt for grouping (paper: 0.8).
	CorrThreshold float64
	// DistThreshold dt for grouping in units of the minimum FF spacing
	// (paper: 10).
	DistThreshold int
	// MaxBuffers caps the number of physical buffers after grouping
	// (0 = no cap); excess groups with the fewest tunings are dropped.
	MaxBuffers int

	// MaxComponent caps the tight-constraint closure per sample; larger
	// components are truncated (a documented acceleration; see DESIGN.md).
	// 0 means 64.
	MaxComponent int
	// Workers bounds sampling parallelism (0 = GOMAXPROCS).
	Workers int
	// ChipCacheMB caps the memory spent caching realized chips so the
	// step-1/step-2 passes — which iterate the same (Seed, k) sample
	// stream — realize each chip once instead of once per pass
	// (0 = default 256 MiB, negative = never cache). Caching never changes
	// results: chip k is deterministic in (Seed, k) either way.
	ChipCacheMB int

	// Ablation switches (all false = the paper's flow).

	// NoConcentration skips the concentration step of each pass
	// (objective (19)): each component takes the Bellman-Ford point of its
	// first feasible minimum-count support instead of the point nearest
	// the centers.
	NoConcentration bool
	// NoPruning skips §III-A2: every FF tuned at least once keeps its
	// buffer candidate into step 2.
	NoPruning bool
	// NoGrouping skips §III-C: every buffer stays physical.
	NoGrouping bool

	// Pass, when non-nil, executes every Monte Carlo pass of the flow
	// (step 1, the optional intermediate §III-B1 re-run, step 2) instead of
	// the in-process sampling loop — the hook the sharded coordinator
	// (internal/serve) plugs in. Implementations must return outcomes for
	// all of [0, Samples) byte-identical to the in-process pass; the flow's
	// reduction and derivation steps are shared either way, so the final
	// result is too. When set, the local chip cache is skipped (samples are
	// realized wherever the passes run) and the function is not part of any
	// cache key — results are byte-identical with or without it.
	Pass PassFunc `json:"-"`

	// onRealize forwards to mc.Engine.OnRealize — a test hook for asserting
	// how many chip realizations a flow run performs.
	onRealize func(k int)
	// repair, when set, repairs every component of every pass in place of
	// the combinatorial repair — the test seam through which the two-ILP
	// oracle runs whole flows. Never set on a serving path.
	repair repairFunc
}

func (cfg *Config) fill() error {
	if !(cfg.T > 0) || math.IsInf(cfg.T, 1) {
		return fmt.Errorf("insertion: target period %v is not a positive finite number", cfg.T)
	}
	if cfg.Spec == (BufferSpec{}) {
		cfg.Spec = DefaultSpec(cfg.T)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return err
	}
	if cfg.Samples <= 0 {
		return fmt.Errorf("insertion: need a positive sample count")
	}
	scale := float64(cfg.Samples) / 10000
	if cfg.PruneMax <= 0 {
		cfg.PruneMax = int(math.Max(1, math.Round(1*scale)))
	}
	if cfg.CriticalMin <= 0 {
		cfg.CriticalMin = int(math.Max(2, math.Round(5*scale)))
	}
	if cfg.SkipRerunFrac == 0 {
		cfg.SkipRerunFrac = 0.001
	}
	if cfg.CorrThreshold == 0 {
		cfg.CorrThreshold = 0.8
	}
	if cfg.DistThreshold == 0 {
		cfg.DistThreshold = 10
	}
	if cfg.MaxComponent <= 0 {
		cfg.MaxComponent = 64
	}
	if cfg.ChipCacheMB == 0 {
		cfg.ChipCacheMB = 256
	}
	return nil
}

// Buffer is one per-flip-flop tuning buffer decided by steps 1–2.
type Buffer struct {
	FF int
	// Lower is the assigned window lower bound r (≤ 0, grid aligned).
	Lower float64
	// Lo/Hi are the final reduced range endpoints observed in step 2
	// (grid values, Lo ≤ 0 ≤ Hi not required — but window always covers 0).
	Lo, Hi float64
	// RangeSteps is the final range in grid steps, (Hi−Lo)/s.
	RangeSteps int
	// Uses counts samples in which the buffer was tuned (step 2).
	Uses int
	// Avg is the mean step-2 tuning value over used samples.
	Avg float64
}

// Group is one physical buffer shared by one or more flip-flops.
type Group struct {
	FFs []int
	// Lo/Hi is the shared discrete window (grid values).
	Lo, Hi float64
	// Uses is the total tuning count across members.
	Uses int
}

// RangeSteps returns the group window width in grid steps.
func (g Group) RangeSteps(s float64) int {
	return int(math.Round((g.Hi - g.Lo) / s))
}

// Stats collects per-step diagnostics for reporting and the Fig. 4/5
// reproductions.
type Stats struct {
	Samples          int
	InfeasibleStep1  int // samples no tuning assignment can fix
	SelfLoopFailures int // samples with violated self-loop pairs
	ZeroViolation    int // samples needing no tuning at all
	TruncatedComps   int // step-1 closures cut at MaxComponent, or too large to enumerate

	// TuneCountStep1[ff] is the number of samples tuning ff in step 1
	// (the node weights of Fig. 4).
	TuneCountStep1 []int
	PrunedFFs      []int // FFs removed by §III-A2
	KeptFFs        []int // FFs surviving pruning

	MissingFrac float64 // step-1 tunings outside the fixed windows
	SkippedB1   bool    // 0.1 % rule applied

	InfeasibleStep2 int

	// Step-1 and step-2 tuning value lists per kept FF (inputs of Fig. 5).
	ValuesStep1 map[int][]float64
	ValuesStep2 map[int][]float64
}

// Result is the flow's output: buffer locations and ranges.
type Result struct {
	Cfg     Config
	Buffers []Buffer
	Groups  []Group
	Stats   Stats
}

// NumPhysicalBuffers returns the Table-I Nb: physical buffers after
// grouping (and capping).
func (r *Result) NumPhysicalBuffers() int { return len(r.Groups) }

// AvgRangeSteps returns the Table-I Ab: the average group range in steps.
func (r *Result) AvgRangeSteps() float64 {
	if len(r.Groups) == 0 {
		return 0
	}
	s := r.Cfg.Spec.Step()
	total := 0.0
	for _, g := range r.Groups {
		total += float64(g.RangeSteps(s))
	}
	return total / float64(len(r.Groups))
}
