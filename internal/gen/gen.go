// Package gen synthesizes sequential benchmark circuits with controlled
// size and structure. The paper evaluates on ISCAS89 and TAU 2013 contest
// circuits mapped to an industrial library — neither of which is
// redistributable — so this generator reproduces the properties the
// algorithm actually consumes: the flip-flop/gate counts of each benchmark
// (Table I's ns and ng), local launch→capture connectivity, a wide spread
// of cone depths (so some register pairs are much more critical than
// others), and reconvergent fan-out (so max and min pair delays differ).
//
// Each capture flip-flop receives a randomly shaped input cone built as a
// gate tree whose leaves draw from a small, locality-biased set of launch
// flip-flops (plus occasional primary inputs). Deep chain-like cones emulate
// critical paths; shallow balanced cones emulate fast control logic.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ckt"
)

// Config controls circuit synthesis.
type Config struct {
	Name     string
	NumFFs   int
	NumGates int
	// NumPIs/NumPOs default to NumFFs/8+1 and NumFFs/10+1 when zero.
	NumPIs int
	NumPOs int
	// MaxSources bounds the distinct launch FFs per cone (default 5).
	MaxSources int
	// LocalityWindow bounds |launch−capture| FF id distance (default
	// max(4, NumFFs/32)); smaller windows give a more local pair graph.
	LocalityWindow int
	// DeepConeFrac is the fraction of cones built chain-like (deep);
	// default 0.3.
	DeepConeFrac float64
	// PILeafProb is the probability a leaf slot takes a primary input
	// instead of a launch FF (default 0.12).
	PILeafProb float64
	Seed       uint64
}

// maxCount bounds every count field of a Config. Far beyond what fits in
// memory as a circuit, it keeps the generator's index arithmetic (a
// locality offset spans 2·LocalityWindow+1 ids past a capture id) clear of
// integer overflow.
const maxCount = 1 << 28

// fill validates the config and resolves its defaults. A negative or
// oversized field is an error, never a panic further in.
func (cfg *Config) fill() error {
	if cfg.NumFFs < 2 {
		return fmt.Errorf("gen: need at least 2 FFs, got %d", cfg.NumFFs)
	}
	if cfg.NumGates < 0 {
		return fmt.Errorf("gen: negative gate count")
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"NumFFs", cfg.NumFFs}, {"NumGates", cfg.NumGates}, {"NumPIs", cfg.NumPIs},
		{"NumPOs", cfg.NumPOs}, {"MaxSources", cfg.MaxSources}, {"LocalityWindow", cfg.LocalityWindow},
	} {
		if f.n < 0 || f.n > maxCount {
			return fmt.Errorf("gen: %s %d outside [0, %d]", f.name, f.n, maxCount)
		}
	}
	if !(cfg.DeepConeFrac >= 0) || !(cfg.PILeafProb >= 0) {
		return fmt.Errorf("gen: negative or NaN fraction (DeepConeFrac %v, PILeafProb %v)", cfg.DeepConeFrac, cfg.PILeafProb)
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("synth_%d_%d", cfg.NumFFs, cfg.NumGates)
	}
	if cfg.NumPIs == 0 {
		cfg.NumPIs = cfg.NumFFs/8 + 1
	}
	if cfg.NumPOs == 0 {
		cfg.NumPOs = cfg.NumFFs/10 + 1
	}
	if cfg.MaxSources == 0 {
		cfg.MaxSources = 5
	}
	if cfg.LocalityWindow == 0 {
		cfg.LocalityWindow = cfg.NumFFs / 32
		if cfg.LocalityWindow < 4 {
			cfg.LocalityWindow = 4
		}
	}
	if cfg.DeepConeFrac == 0 {
		cfg.DeepConeFrac = 0.3
	}
	if cfg.PILeafProb == 0 {
		cfg.PILeafProb = 0.12
	}
	return nil
}

// binary gate kinds used for tree internals (arity 2).
var binaryKinds = []ckt.Kind{ckt.And, ckt.Nand, ckt.Or, ckt.Nor, ckt.Nand, ckt.Nor, ckt.Xor}

// unary gate kinds occasionally inserted for chain depth (arity 1).
var unaryKinds = []ckt.Kind{ckt.Not, ckt.Buf}

// Generate synthesizes a circuit per the config. The result is
// deterministic in the seed, validated, and has exactly cfg.NumFFs
// flip-flops and cfg.NumGates combinational gates.
func Generate(cfg Config) (*ckt.Circuit, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9234))
	c := ckt.New(cfg.Name)

	pis := make([]int, cfg.NumPIs)
	for i := range pis {
		pis[i] = c.MustAddNode(fmt.Sprintf("pi%d", i), ckt.Input)
	}
	ffs := make([]int, cfg.NumFFs)
	for i := range ffs {
		ffs[i] = c.MustAddNode(fmt.Sprintf("ff%d", i), ckt.DFF)
	}

	// Split the gate budget across cones with a skewed distribution:
	// budget_j ∝ Exp(1) draws, rounded to preserve the exact total.
	budgets := splitBudget(rng, cfg.NumGates, cfg.NumFFs)

	gateID := 0
	newGate := func(kind ckt.Kind) int {
		id := c.MustAddNode(fmt.Sprintf("g%d", gateID), kind)
		gateID++
		return id
	}

	for j := 0; j < cfg.NumFFs; j++ {
		sources := pickSources(rng, cfg, j)
		srcNodes := make([]int, len(sources))
		for k, s := range sources {
			srcNodes[k] = ffs[s]
		}
		deep := rng.Float64() < cfg.DeepConeFrac
		driver := buildCone(rng, c, cfg, budgets[j], srcNodes, pis, deep, newGate)
		c.MustConnect(driver, ffs[j])
	}

	// Primary outputs observe a spread of FF outputs.
	for i := 0; i < cfg.NumPOs; i++ {
		src := ffs[(i*max(1, cfg.NumFFs/cfg.NumPOs))%cfg.NumFFs]
		po := c.MustAddNode(fmt.Sprintf("po%d", i), ckt.Output)
		c.MustConnect(src, po)
	}

	// Guarantee every PI drives something (unused PIs feed a keeper gate
	// chain ending at an existing PO-observed FF? Simpler: no — validation
	// does not require PI fanout, and dangling PIs exist in real designs
	// post-optimization. Leave them.)

	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated circuit invalid: %w", err)
	}
	if got := c.NumGates(); got != cfg.NumGates {
		return nil, fmt.Errorf("gen: gate count %d != requested %d", got, cfg.NumGates)
	}
	if got := c.NumFFs(); got != cfg.NumFFs {
		return nil, fmt.Errorf("gen: FF count %d != requested %d", got, cfg.NumFFs)
	}
	return c, nil
}

// splitBudget divides total gates across n cones, skewed so a minority of
// cones are much larger (critical cones).
func splitBudget(rng *rand.Rand, total, n int) []int {
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		w := rng.ExpFloat64()
		// Heavy tail: square a minority of draws.
		if rng.Float64() < 0.15 {
			w = w * w * 2
		}
		weights[i] = w
		sum += w
	}
	out := make([]int, n)
	assigned := 0
	for i := range weights {
		b := int(math.Floor(weights[i] / sum * float64(total)))
		out[i] = b
		assigned += b
	}
	// Distribute the remainder round-robin over the largest weights.
	for k := 0; assigned < total; k++ {
		out[k%n]++
		assigned++
	}
	return out
}

// pickSources chooses the distinct launch FFs for capture j within the
// locality window (wrapping around the id space). The capture FF itself is
// excluded: a self-loop pair cannot be repaired by clock tuning (xᵢ − xᵢ
// cancels in constraints (1)–(2)), and in real benchmarks the critical
// register-to-register paths run between distinct flip-flops.
func pickSources(rng *rand.Rand, cfg Config, j int) []int {
	count := 1 + rng.IntN(cfg.MaxSources)
	seen := map[int]bool{}
	var out []int
	for tries := 0; len(out) < count && tries < 4*count; tries++ {
		off := rng.IntN(2*cfg.LocalityWindow+1) - cfg.LocalityWindow
		s := ((j+off)%cfg.NumFFs + cfg.NumFFs) % cfg.NumFFs
		if s != j && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = append(out, (j+1)%cfg.NumFFs)
	}
	return out
}

// buildCone creates `budget` gates forming the input cone of one capture
// FF and returns the node driving the FF's D pin. With budget 0 the driver
// is a source FF directly. The cone is a tree grown from the output gate:
// an open-input-slot worklist is filled with pool gates (LIFO for deep
// chain-like cones, FIFO for balanced ones) and finally with leaves drawn
// from the source FFs and occasional primary inputs.
func buildCone(rng *rand.Rand, c *ckt.Circuit, cfg Config, budget int, srcNodes, pis []int, deep bool, newGate func(ckt.Kind) int) int {
	if budget == 0 {
		return srcNodes[rng.IntN(len(srcNodes))]
	}
	pickKind := func() ckt.Kind {
		// ~12 % unary gates for chain depth variety.
		if rng.Float64() < 0.12 {
			return unaryKinds[rng.IntN(len(unaryKinds))]
		}
		return binaryKinds[rng.IntN(len(binaryKinds))]
	}
	type slot struct{ gate int }
	out := newGate(pickKind())
	slots := make([]slot, 0, budget)
	arity := func(k ckt.Kind) int {
		if k.MaxFanin() == 1 {
			return 1
		}
		return 2
	}
	for i := 0; i < arity(c.Nodes[out].Kind); i++ {
		slots = append(slots, slot{gate: out})
	}
	for remaining := budget - 1; remaining > 0; remaining-- {
		g := newGate(pickKind())
		// Choose the slot to fill: LIFO grows depth, FIFO grows width.
		var idx int
		if deep {
			idx = len(slots) - 1
		} else {
			idx = 0
		}
		// Occasionally randomize to avoid pure chains/combs.
		if rng.Float64() < 0.25 {
			idx = rng.IntN(len(slots))
		}
		s := slots[idx]
		slots = append(slots[:idx], slots[idx+1:]...)
		c.MustConnect(g, s.gate)
		for i := 0; i < arity(c.Nodes[g].Kind); i++ {
			slots = append(slots, slot{gate: g})
		}
	}
	// Fill remaining slots with leaves: source FFs (reused → reconvergence)
	// or PIs.
	for _, s := range slots {
		var leaf int
		if len(pis) > 0 && rng.Float64() < cfg.PILeafProb {
			leaf = pis[rng.IntN(len(pis))]
		} else {
			leaf = srcNodes[rng.IntN(len(srcNodes))]
		}
		c.MustConnect(leaf, s.gate)
	}
	return out
}
