// Package expt orchestrates the paper's experiments: it prepares benchmark
// instances (circuit → SSTA → skewed timing graph → placement → period
// distribution) and runs the Table I rows and the Fig. 4/5 data extraction.
// The cmd/ binaries and the root bench harness are thin wrappers over this
// package, so every reported number is produced by exactly one code path.
package expt

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cells"
	"repro/internal/ckt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/placement"
	"repro/internal/ssta"
	"repro/internal/timing"
	"repro/internal/variation"
	"repro/internal/yield"
)

// Bench is a fully prepared benchmark instance.
//
// A Bench is immutable after Prepare: the flow (insertion.Run/Runner), the
// yield evaluators, and the Monte Carlo engines only ever read the Graph,
// Placement, and Circuit, so one prepared Bench may be shared by any number
// of concurrent requests — this is what makes server-side bench caching
// (internal/serve) safe. Do not mutate the fields after preparation.
type Bench struct {
	Name      string
	Circuit   *ckt.Circuit
	Graph     *timing.Graph
	Placement *placement.Placement
	Period    mc.PeriodStats

	// Analyzer is the prepared SSTA state the Graph was built from. It is
	// frozen after Prepare like everything else here; what-if queries Fork
	// it (ssta.Analyzer.Fork) so incremental re-analysis never mutates the
	// shared bench.
	Analyzer *ssta.Analyzer
	// Opt records the resolved preparation options, so derived analyses
	// (WhatIf) can reuse the same sampling universes.
	Opt Options
}

// Options configure benchmark preparation.
//
// Zero-value defaulting: a zero SkewFrac or Seed selects the documented
// default, so the zero Options value is always the paper's configuration.
// The explicit Has* flags make the literal zero selectable too — without
// them a zero was silently rewritten to the default and could never be
// requested (the sentinel bug this API replaces).
type Options struct {
	// SkewFrac scales injected clock skews relative to the largest nominal
	// pair delay. 0 = default 0.03 unless HasSkewFrac is set; negative =
	// no skew. To prepare with literally zero skew, set HasSkewFrac and
	// SkewFrac = 0 (equivalent to any negative value).
	SkewFrac float64
	// HasSkewFrac marks SkewFrac as explicitly chosen: when set, SkewFrac
	// is used verbatim and 0 means "no skew" rather than "default".
	HasSkewFrac bool
	// PeriodSamples sets the Monte Carlo size for µT/σT (0 = 4000).
	PeriodSamples int
	// Seed offsets the skew/period sampling universes. 0 = fixed default
	// (0xBEEF) unless HasSeed is set.
	Seed uint64
	// HasSeed marks Seed as explicitly chosen: when set, Seed is used
	// verbatim, making the zero seed universe selectable.
	HasSeed bool
	// Regions splits the die into spatial correlation regions: process
	// parameters are fully correlated within a region and independent
	// across regions (the canonical model [3] supports this natively;
	// the paper's setting is one region). 0 or 1 = single region.
	Regions int
}

func (o *Options) fill() {
	if o.SkewFrac == 0 && !o.HasSkewFrac {
		o.SkewFrac = 0.03
	}
	o.HasSkewFrac = true
	if o.PeriodSamples == 0 {
		o.PeriodSamples = 4000
	}
	if o.Seed == 0 && !o.HasSeed {
		o.Seed = 0xBEEF
	}
	o.HasSeed = true
}

// Canonical resolves every default and normalizes equivalent settings to
// one representative, so two Options values that prepare identical benches
// canonicalize equal. It is the cache-key form used by serving layers.
func (o Options) Canonical() Options {
	o.fill()
	if o.SkewFrac <= 0 {
		o.SkewFrac = -1 // explicit zero and every negative value mean "no skew"
	}
	if o.Regions < 2 {
		o.Regions = 1 // 0 and 1 are both the single-region model
	}
	return o
}

// Key renders the canonical options as a deterministic cache-key fragment.
func (o Options) Key() string {
	c := o.Canonical()
	return fmt.Sprintf("skew=%g;n=%d;seed=%d;regions=%d",
		c.SkewFrac, c.PeriodSamples, c.Seed, c.Regions)
}

// Prepare builds a Bench from a circuit.
func Prepare(c *ckt.Circuit, opt Options) (*Bench, error) {
	opt.fill()
	model := variation.NewModel(cells.Default())
	if opt.Regions > 1 {
		model.Space = variation.Space{Params: model.Space.Params, Regions: opt.Regions}
		model.RegionOf = RegionAssigner(c, opt.Regions)
	}
	a, err := ssta.New(c, model)
	if err != nil {
		return nil, err
	}
	g := timing.Build(a, nil)
	if opt.SkewFrac > 0 {
		sk := g.HoldSafeSkews(timing.SkewSigma(g.Pairs, opt.SkewFrac), opt.Seed+1)
		g = g.WithSkew(sk)
	}
	pl := placement.Grid(g.NS, placement.AdjFromPairs(g.NS, g.FFPairIDs()))
	ps := mc.New(g, opt.Seed+2).PeriodDistribution(opt.PeriodSamples)
	return &Bench{Name: c.Name, Circuit: c, Graph: g, Placement: pl, Period: ps,
		Analyzer: a, Opt: opt}, nil
}

// Edit is one what-if delay perturbation: DeltaPS is added to the nominal
// canonical delay of the named node (clk→Q for a DFF) — the timing effect
// of inserting a buffer at the node's output, or of a library swap's
// nominal shift.
type Edit struct {
	Node    string  `json:"node"`
	DeltaPS float64 `json:"delta_ps"`
}

// WhatIfResult is the re-analysis of a prepared bench under delay edits.
type WhatIfResult struct {
	Graph  *timing.Graph
	Period mc.PeriodStats
}

// WhatIf re-analyzes the bench with the given delay edits applied, using
// incremental cone repropagation on a fork of the prepared analyzer: only
// the launches whose cones contain an edited node are re-propagated, and
// the resulting pairs are byte-identical to a from-scratch re-prepare of
// the edited circuit at the bench's skews. The prepared clock skews are
// deliberately held fixed (not re-drawn from the perturbed pair delays) so
// the reported period shift is attributable to the edit alone. The bench
// itself is never mutated; concurrent WhatIf calls on a shared bench are
// safe. Edits at nodes no register-to-register path can observe (ports,
// output-only cones) are valid and leave the timing unchanged.
func (b *Bench) WhatIf(edits []Edit) (*WhatIfResult, error) {
	if len(edits) == 0 {
		return nil, fmt.Errorf("expt: what-if needs at least one edit")
	}
	a := b.Analyzer.Fork()
	nodes := make([]int, len(edits))
	for i, e := range edits {
		id, ok := b.Circuit.Index(e.Node)
		if !ok {
			return nil, fmt.Errorf("expt: what-if edit: unknown node %q", e.Node)
		}
		a.AddDelay(id, e.DeltaPS)
		nodes[i] = id
	}
	pairs := a.RepropagateCone(nodes...)
	g := timing.BuildPairs(a, pairs, b.Graph.Skew)
	ps := mc.New(g, b.Opt.Seed+2).PeriodDistribution(b.Opt.PeriodSamples)
	return &WhatIfResult{Graph: g, Period: ps}, nil
}

// RegionAssigner maps every netlist node to one of `regions` spatial
// regions. Flip-flops partition by id blocks — generated circuits draw
// launch/capture pairs from a locality window over ids, so id blocks are
// physically coherent neighborhoods — and each gate inherits the region of
// the capture flip-flop its fan-out cone feeds (gates sit next to the
// registers they drive). Nodes reaching no flip-flop (output cones) land in
// region 0.
func RegionAssigner(c *ckt.Circuit, regions int) func(node int) int {
	ns := c.NumFFs()
	if ns == 0 || regions < 1 {
		return func(int) int { return 0 }
	}
	// memo: −1 unvisited, −2 on the current chain (cycle sentinel), else
	// the resolved region. Iterative: the region chase follows Fanout[0]
	// links that can be as long as the whole netlist, so a recursive walk
	// would overflow the goroutine stack on deep combinational chains; and
	// the cycle guard memoizes its verdict, so a pathological (illegal)
	// cyclic netlist costs one walk, not an exponential re-walk per query.
	memo := make([]int, len(c.Nodes))
	for i := range memo {
		memo[i] = -1
	}
	ffRegion := func(ffid int) int {
		r := ffid * regions / ns
		if r >= regions {
			r = regions - 1
		}
		return r
	}
	regionOf := func(node int) int {
		if memo[node] >= 0 {
			return memo[node]
		}
		// Chase the fan-out chain until a resolved node, collecting the
		// chain so every node on it memoizes the answer.
		chain := []int{}
		cur := node
		r := 0
		for {
			if memo[cur] >= 0 {
				r = memo[cur]
				break
			}
			if memo[cur] == -2 {
				// Cycle (illegal netlists only): the whole loop resolves
				// to region 0, memoized below like any other answer.
				break
			}
			memo[cur] = -2
			chain = append(chain, cur)
			n := c.Nodes[cur]
			if n.Kind == ckt.DFF {
				r = ffRegion(c.FFID(cur))
				break
			}
			if len(n.Fanout) == 0 {
				break
			}
			cur = n.Fanout[0]
		}
		for _, v := range chain {
			memo[v] = r
		}
		return r
	}
	return func(node int) int {
		if node < 0 || node >= len(c.Nodes) {
			return 0
		}
		return regionOf(node)
	}
}

// PreparePreset builds a Bench for one of the paper's Table I circuits.
func PreparePreset(name string, opt Options) (*Bench, error) {
	p, err := gen.PresetByName(name)
	if err != nil {
		return nil, err
	}
	c, err := p.Build()
	if err != nil {
		return nil, err
	}
	return Prepare(c, opt)
}

// Target identifies one of Table I's three clock-period settings.
type Target int

// Table I period targets.
const (
	MuT Target = iota
	MuTPlusSigma
	MuTPlus2Sigma
)

// String names the target as in the Table I column groups.
func (t Target) String() string {
	switch t {
	case MuT:
		return "muT"
	case MuTPlusSigma:
		return "muT+sigma"
	case MuTPlus2Sigma:
		return "muT+2sigma"
	}
	return "?"
}

// Period returns the target period for a bench.
func (b *Bench) PeriodFor(t Target) float64 {
	switch t {
	case MuT:
		return b.Period.Mu
	case MuTPlusSigma:
		return b.Period.Mu + b.Period.Sigma
	case MuTPlus2Sigma:
		return b.Period.Mu + 2*b.Period.Sigma
	}
	panic("expt: unknown target")
}

// Targets lists the three Table I settings.
var Targets = []Target{MuT, MuTPlusSigma, MuTPlus2Sigma}

// RowConfig sets sample budgets for one Table I row.
type RowConfig struct {
	// InsertSamples is |M| for the insertion flow (paper: 10 000).
	InsertSamples int
	// EvalSamples is the fresh-chip count for Yo/Y measurement.
	EvalSamples int
	// Seed for the insertion sampling universe (eval uses Seed+0x1000).
	Seed uint64
	// MaxBuffers optionally caps the physical buffer count.
	MaxBuffers int
	// Workers bounds parallelism (0 = all cores).
	Workers int
	// Eps, when > 0, switches the shared yield pass to adaptive sequential
	// evaluation: chips arrive in escalating waves until every row's yield
	// is known to ±Eps at confidence Conf (default 0.95), with EvalSamples
	// as the cap instead of the exact count. Rows then carry the adaptive
	// report and their Yo/Y columns are the sequential estimates.
	Eps float64
	// Conf is the adaptive confidence level (0 = 0.95); ignored unless Eps
	// is set.
	Conf float64
}

func (rc *RowConfig) fill() {
	if rc.InsertSamples == 0 {
		rc.InsertSamples = 2000
	}
	if rc.EvalSamples == 0 {
		rc.EvalSamples = 4000
	}
	if rc.Seed == 0 {
		rc.Seed = 0xF00D
	}
}

// Row is one Table I entry: a circuit at one period target.
type Row struct {
	Circuit  string
	NS, NG   int
	Target   Target
	T        float64
	Nb       int     // physical buffers (after grouping)
	Ab       float64 // average range in steps
	Yo       float64 // original yield %
	Y        float64 // yield with buffers %
	Yi       float64 // improvement, percentage points
	Runtime  time.Duration
	Insert   *insertion.Result
	YieldRep yield.Report
	// Adaptive is the sequential-evaluation report when the row was measured
	// under RowConfig.Eps (YieldRep is then zero: there is no exact-count
	// report to fill).
	Adaptive *yield.AdaptiveReport
}

// RunRow executes the full flow + yield measurement for one target.
func RunRow(b *Bench, target Target, rc RowConfig) (Row, error) {
	rows, err := RunRows(b, []Target{target}, rc)
	if err != nil {
		return Row{}, err
	}
	return rows[0], nil
}

// RunRows executes the flow for several period targets and then measures
// every row's yield in one shared evaluation pass: all rows draw their
// fresh chips from the same universe (Seed+0x1000), so the pass realizes
// each chip exactly once and hands it to every row's evaluator. Reported
// yields are byte-identical to running the rows separately; only the
// repeated realization cost is gone.
func RunRows(b *Bench, targets []Target, rc RowConfig) ([]Row, error) {
	rc.fill()
	rows := make([]Row, len(targets))
	sweeps := make([]*yield.SweepEvaluator, len(targets))
	// One Runner serves every target: the pair adjacency is built once and
	// the later targets draw warm solvers from the first one's pool.
	runner := insertion.NewRunner(b.Graph, b.Placement)
	for i, target := range targets {
		T := b.PeriodFor(target)
		start := time.Now()
		cfg := insertion.Config{
			T:          T,
			Samples:    rc.InsertSamples,
			Seed:       rc.Seed,
			MaxBuffers: rc.MaxBuffers,
			Workers:    rc.Workers,
		}
		res, err := runner.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("expt: insertion on %s@%v: %w", b.Name, target, err)
		}
		elapsed := time.Since(start)
		ev, err := yield.NewEvaluator(b.Graph, res.Cfg.Spec, res.Groups)
		if err != nil {
			return nil, err
		}
		if sweeps[i], err = yield.NewSweepEvaluator(ev, []float64{T}); err != nil {
			return nil, err
		}
		rows[i] = Row{
			Circuit: b.Name,
			NS:      b.Graph.NS,
			NG:      b.Circuit.NumGates(),
			Target:  target,
			T:       T,
			Nb:      res.NumPhysicalBuffers(),
			Ab:      res.AvgRangeSteps(),
			Runtime: elapsed,
			Insert:  res,
		}
	}
	seed := rc.Seed + 0x1000
	tally := yield.LocalTally(yield.Stream(b.Graph, seed, rc.Workers), sweeps...)
	prec := yield.Precision{Eps: rc.Eps, Conf: rc.Conf}
	reports, adaptive, err := yield.Drive(context.Background(), rc.EvalSamples, prec, sweeps, tally)
	if err != nil {
		return nil, fmt.Errorf("expt: yield evaluation on %s: %w", b.Name, err)
	}
	for i := range rows {
		if adaptive != nil {
			rows[i].Yo = adaptive[i].Original[0].Estimate * 100
			rows[i].Y = adaptive[i].Tuned[0].Estimate * 100
			rows[i].Yi = rows[i].Y - rows[i].Yo
			rows[i].Adaptive = &adaptive[i]
			continue
		}
		rep := reports[i].At(0)
		rows[i].Yo = rep.Original.Percent()
		rows[i].Y = rep.Tuned.Percent()
		rows[i].Yi = rep.Improvement()
		rows[i].YieldRep = rep
	}
	return rows, nil
}

// Fig4Node is one node of the pruning illustration: an FF with its step-1
// tuning count and whether pruning removed it.
type Fig4Node struct {
	FF     int
	Count  int
	Pruned bool
}

// Fig4Data extracts the pruning picture (paper Fig. 4) from a flow result:
// every FF that was tuned at least once, its count, and its pruning fate.
func Fig4Data(res *insertion.Result) []Fig4Node {
	pruned := map[int]bool{}
	for _, ff := range res.Stats.PrunedFFs {
		pruned[ff] = true
	}
	var out []Fig4Node
	for ff, n := range res.Stats.TuneCountStep1 {
		if n == 0 {
			continue
		}
		out = append(out, Fig4Node{FF: ff, Count: n, Pruned: pruned[ff]})
	}
	return out
}

// Fig5Series is the tuning-value histogram data of one buffer in one step.
type Fig5Series struct {
	FF     int
	Step   int // 1 = after step-1 concentration, 2 = after step-2
	Values []float64
}

// Fig5Data returns the tuning-value series for the most-used buffer (or
// ff = −1 to select automatically), reproducing the three panels of Fig. 5:
// the step-1 values (panel a/b: scattered, then window assignment) and the
// step-2 values (panel c: concentrated around the average).
func Fig5Data(res *insertion.Result, ff int) (s1, s2 Fig5Series, ok bool) {
	if ff < 0 {
		best := -1
		for _, b := range res.Buffers {
			if best < 0 || b.Uses > best {
				best = b.Uses
				ff = b.FF
			}
		}
		if ff < 0 {
			return s1, s2, false
		}
	}
	v1, ok1 := res.Stats.ValuesStep1[ff]
	v2, ok2 := res.Stats.ValuesStep2[ff]
	if !ok1 && !ok2 {
		return s1, s2, false
	}
	s1 = Fig5Series{FF: ff, Step: 1, Values: v1}
	s2 = Fig5Series{FF: ff, Step: 2, Values: v2}
	return s1, s2, true
}
