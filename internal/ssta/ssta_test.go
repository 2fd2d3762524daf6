package ssta

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cells"
	"repro/internal/ckt"
	"repro/internal/variation"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// chain builds ff0 → inv → inv2 → ff1.
func chain(t *testing.T) *ckt.Circuit {
	t.Helper()
	c := ckt.New("chain")
	ff0 := c.MustAddNode("ff0", ckt.DFF)
	i1 := c.MustAddNode("i1", ckt.Not)
	i2 := c.MustAddNode("i2", ckt.Not)
	ff1 := c.MustAddNode("ff1", ckt.DFF)
	c.MustConnect(ff0, i1)
	c.MustConnect(i1, i2)
	c.MustConnect(i2, ff1)
	// ff1 must have something driving its next state beyond i2? It has D=i2.
	// ff0's D needs a driver: feed ff1's Q back.
	c.MustConnect(ff1, ff0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainPairDelays(t *testing.T) {
	c := chain(t)
	lib := cells.Default()
	m := variation.NewModel(lib)
	a, err := New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	pairs := a.PairDelays()
	// Two pairs: ff0→ff1 (through i1, i2) and ff1→ff0 (direct feedback).
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	var p01, p10 *Pair
	for i := range pairs {
		switch {
		case pairs[i].Launch == 0 && pairs[i].Capture == 1:
			p01 = &pairs[i]
		case pairs[i].Launch == 1 && pairs[i].Capture == 0:
			p10 = &pairs[i]
		}
	}
	if p01 == nil || p10 == nil {
		t.Fatalf("missing pairs: %+v", pairs)
	}
	// Nominal: clk2q(load) + inv(load1) + inv(load1).
	ff0Node, _ := c.Index("ff0")
	i1n, _ := c.Index("i1")
	i2n, _ := c.Index("i2")
	want := a.GateDelay(ff0Node).Mean + a.GateDelay(i1n).Mean + a.GateDelay(i2n).Mean
	if !almost(p01.Max.Mean, want, 1e-9) {
		t.Fatalf("p01 max mean = %v want %v", p01.Max.Mean, want)
	}
	// Single path: max equals min.
	if !almost(p01.Max.Mean, p01.Min.Mean, 1e-9) {
		t.Fatal("single path should have max == min")
	}
	// Direct FF→FF pair is just clk2q of ff1.
	ff1Node, _ := c.Index("ff1")
	if !almost(p10.Max.Mean, a.GateDelay(ff1Node).Mean, 1e-9) {
		t.Fatalf("p10 = %v", p10.Max.Mean)
	}
}

// reconvergent builds a diamond: ff0 → {short: buf, long: and-chain} → ff1
// so max and min differ.
func reconvergent(t *testing.T) *ckt.Circuit {
	t.Helper()
	c := ckt.New("diamond")
	ff0 := c.MustAddNode("ff0", ckt.DFF)
	b := c.MustAddNode("b", ckt.Buf)
	x1 := c.MustAddNode("x1", ckt.Xor)
	x2 := c.MustAddNode("x2", ckt.Xor)
	or := c.MustAddNode("or", ckt.Or)
	ff1 := c.MustAddNode("ff1", ckt.DFF)
	c.MustConnect(ff0, b)
	c.MustConnect(ff0, x1)
	c.MustConnect(b, x1) // x1 needs 2 inputs
	c.MustConnect(x1, x2)
	c.MustConnect(ff0, x2)
	c.MustConnect(x2, or)
	c.MustConnect(b, or)
	c.MustConnect(or, ff1)
	c.MustConnect(ff1, ff0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReconvergentMaxMin(t *testing.T) {
	c := reconvergent(t)
	m := variation.NewModel(cells.Default())
	a, err := New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	pairs := a.PairDelays()
	var p *Pair
	for i := range pairs {
		if pairs[i].Launch == 0 && pairs[i].Capture == 1 {
			p = &pairs[i]
		}
	}
	if p == nil {
		t.Fatal("pair 0→1 missing")
	}
	if p.Max.Mean <= p.Min.Mean {
		t.Fatalf("max %v should exceed min %v on reconvergent paths", p.Max.Mean, p.Min.Mean)
	}
}

func TestCanonicalVsExactMonteCarlo(t *testing.T) {
	// The canonical pair delay must match exact gate-level MC moments.
	c := reconvergent(t)
	m := variation.NewModel(cells.Default())
	a, err := New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	pairs := a.PairDelays()
	var canon *Pair
	for i := range pairs {
		if pairs[i].Launch == 0 && pairs[i].Capture == 1 {
			canon = &pairs[i]
		}
	}
	rng := rand.New(rand.NewPCG(7, 7))
	dim := m.Space.Dim()
	const nSamp = 20000
	var sumMax, sumMaxSq float64
	delays := make([]float64, len(c.Nodes))
	for s := 0; s < nSamp; s++ {
		g := make([]float64, dim)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		for node := range c.Nodes {
			d := a.GateDelay(node)
			delays[node] = d.Eval(g, rng.NormFloat64())
		}
		ex := a.ExactPairDelays(delays)
		for _, pv := range ex {
			if pv.Launch == 0 && pv.Capture == 1 {
				sumMax += pv.Max
				sumMaxSq += pv.Max * pv.Max
			}
		}
	}
	mean := sumMax / nSamp
	std := math.Sqrt(sumMaxSq/nSamp - mean*mean)
	// Clark's approximation: tolerate a small relative error.
	if math.Abs(canon.Max.Mean-mean)/mean > 0.02 {
		t.Fatalf("canonical mean %v vs MC %v", canon.Max.Mean, mean)
	}
	if math.Abs(canon.Max.Std()-std)/std > 0.15 {
		t.Fatalf("canonical std %v vs MC %v", canon.Max.Std(), std)
	}
}

func TestSetupHoldAccessors(t *testing.T) {
	c := chain(t)
	m := variation.NewModel(cells.Default())
	a, err := New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Setup(0).Mean <= 0 || a.Hold(0).Mean <= 0 {
		t.Fatal("setup/hold must be positive")
	}
	if a.Setup(0).Mean <= a.Hold(0).Mean {
		t.Fatal("library has setup > hold")
	}
}

func TestNoPairsForPortOnlyCircuit(t *testing.T) {
	c := ckt.New("comb")
	in := c.MustAddNode("in", ckt.Input)
	g := c.MustAddNode("g", ckt.Not)
	out := c.MustAddNode("out", ckt.Output)
	c.MustConnect(in, g)
	c.MustConnect(g, out)
	m := variation.NewModel(cells.Default())
	a, err := New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if pairs := a.PairDelays(); len(pairs) != 0 {
		t.Fatalf("combinational circuit should have no pairs: %+v", pairs)
	}
}

func TestPIPathsExcluded(t *testing.T) {
	// PI → gate → FF: no launch FF, so no pair, but the FF exists.
	c := ckt.New("pi")
	in := c.MustAddNode("in", ckt.Input)
	g := c.MustAddNode("g", ckt.Buf)
	ff := c.MustAddNode("ff", ckt.DFF)
	c.MustConnect(in, g)
	c.MustConnect(g, ff)
	m := variation.NewModel(cells.Default())
	a, err := New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if pairs := a.PairDelays(); len(pairs) != 0 {
		t.Fatalf("PI-launched paths must not create pairs: %+v", pairs)
	}
}

func TestInvalidCircuitRejected(t *testing.T) {
	c := ckt.New("bad")
	a := c.MustAddNode("a", ckt.Input)
	g := c.MustAddNode("g", ckt.And) // arity violation: one input
	c.MustConnect(a, g)
	m := variation.NewModel(cells.Default())
	if _, err := New(c, m); err == nil {
		t.Fatal("invalid circuit must be rejected")
	}
}

func TestExactMatchesCanonicalOnDeterministicModel(t *testing.T) {
	// With all variation zeroed, canonical mean == exact propagation.
	c := reconvergent(t)
	lib := cells.Default()
	m := variation.NewModel(lib)
	a, err := New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	delays := make([]float64, len(c.Nodes))
	for node := range c.Nodes {
		delays[node] = a.GateDelay(node).Mean
	}
	ex := a.ExactPairDelays(delays)
	pairs := a.PairDelays()
	find := func(l, cp int, ps []Pair) *Pair {
		for i := range ps {
			if ps[i].Launch == l && ps[i].Capture == cp {
				return &ps[i]
			}
		}
		return nil
	}
	for _, e := range ex {
		p := find(e.Launch, e.Capture, pairs)
		if p == nil {
			t.Fatalf("pair %d→%d missing from canonical", e.Launch, e.Capture)
		}
		// Canonical mean of max ≥ deterministic max (Clark adds spread);
		// they must agree within a few percent for this small circuit.
		if math.Abs(p.Max.Mean-e.Max)/e.Max > 0.05 {
			t.Fatalf("pair %d→%d: canonical %v vs exact %v", e.Launch, e.Capture, p.Max.Mean, e.Max)
		}
	}
	if len(ex) != len(pairs) {
		t.Fatalf("exact found %d pairs, canonical %d", len(ex), len(pairs))
	}
}
