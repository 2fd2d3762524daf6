package timing

import "math/rand/v2"

// This file holds the per-draw test adapters of the realization kernels:
// they fill a chip's deviate buffer one draw at a time from any normal
// source (math/rand/v2 in the tests, the reference the engine's batched
// Stream fills are compared against) and run the same kernel.

// NormSource yields standard-normal deviates; *rand.Rand satisfies it.
type NormSource interface {
	NormFloat64() float64
}

// RealizeInto samples one chip into ch from rng: the global vector first,
// then one deviate per pair, then one per FF.
func (g *Graph) RealizeInto(rng NormSource, ch *Chip) {
	for i := range ch.dev {
		ch.dev[i] = rng.NormFloat64()
	}
	g.RealizeDeviates(ch)
}

// RealizeWithGlobals samples a chip with a caller-provided global vector;
// the per-pair and per-FF deviates come from rng.
func (g *Graph) RealizeWithGlobals(rng NormSource, gvec []float64, ch *Chip) {
	copy(ch.dev, gvec[:g.dim])
	for i := g.dim; i < len(ch.dev); i++ {
		ch.dev[i] = rng.NormFloat64()
	}
	g.RealizeDeviates(ch)
}

// Realize allocates and samples a fresh chip.
func (g *Graph) Realize(rng *rand.Rand) *Chip {
	ch := g.NewChip()
	g.RealizeInto(rng, ch)
	return ch
}

// DenseOf returns a copy of g without the kernels Build precomputes, so it
// realizes through the dense canonical forms, as a hand-assembled graph
// does.
func DenseOf(g *Graph) *Graph {
	return &Graph{NS: g.NS, Skew: g.Skew, Pairs: g.Pairs, setup: g.setup, hold: g.hold, dim: g.dim}
}

// KernelOf names the realization kernel g selected: "packed" (realize3),
// "sparse" or "dense".
func KernelOf(g *Graph) string {
	switch {
	case g.pairs3 != nil:
		return "packed"
	case g.maxSp != nil:
		return "sparse"
	}
	return "dense"
}
