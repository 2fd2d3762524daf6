package ssta

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/ckt"
	"repro/internal/gen"
	"repro/internal/variation"
)

func analyzerFor(t *testing.T, cfg gen.Config) (*ckt.Circuit, *Analyzer) {
	t.Helper()
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return c, a
}

func sameBits(a, b variation.Canonical) bool {
	if a.Mean != b.Mean || a.Rand != b.Rand || len(a.Sens) != len(b.Sens) {
		return false
	}
	for i := range a.Sens {
		if a.Sens[i] != b.Sens[i] {
			return false
		}
	}
	return true
}

func clonePairs(pairs []Pair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{Launch: p.Launch, Capture: p.Capture, Max: p.Max.Clone(), Min: p.Min.Clone()}
	}
	return out
}

func requireSamePairs(t *testing.T, ctx string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Launch != w.Launch || g.Capture != w.Capture {
			t.Fatalf("%s: pair %d is %d→%d, want %d→%d", ctx, i, g.Launch, g.Capture, w.Launch, w.Capture)
		}
		if !sameBits(g.Max, w.Max) || !sameBits(g.Min, w.Min) {
			t.Fatalf("%s: pair %d (%d→%d) forms differ:\n got max %+v min %+v\nwant max %+v min %+v",
				ctx, i, g.Launch, g.Capture, g.Max, g.Min, w.Max, w.Min)
		}
	}
}

// TestPropertyArcSetsMatchExact: on generated circuits, the pruned
// canonical propagation and the full-order exact oracle must report the
// identical (launch, capture) arc list — same set, same order. This is the
// structural half of the canonical-vs-exact pin; the skeleton precompute
// and the on-path reduction must never add or drop an arc.
func TestPropertyArcSetsMatchExact(t *testing.T) {
	for _, cfg := range []gen.Config{
		{NumFFs: 8, NumGates: 40, Seed: 1},
		{NumFFs: 16, NumGates: 120, Seed: 2},
		{NumFFs: 24, NumGates: 200, Seed: 3, DeepConeFrac: 0.6},
		{NumFFs: 12, NumGates: 60, Seed: 4, LocalityWindow: 3},
	} {
		c, a := analyzerFor(t, cfg)
		pairs := a.PairDelays()
		delays := make([]float64, len(c.Nodes))
		for node := range c.Nodes {
			delays[node] = a.GateDelay(node).Mean
		}
		ex := a.ExactPairDelays(delays)
		if len(ex) != len(pairs) {
			t.Fatalf("%s: canonical has %d arcs, exact %d", c.Name, len(pairs), len(ex))
		}
		for i := range ex {
			if pairs[i].Launch != ex[i].Launch || pairs[i].Capture != ex[i].Capture {
				t.Fatalf("%s: arc %d: canonical %d→%d vs exact %d→%d",
					c.Name, i, pairs[i].Launch, pairs[i].Capture, ex[i].Launch, ex[i].Capture)
			}
		}
	}
}

// TestPropertyCanonicalMomentsMatchExactMC: sampled exact-propagation
// moments of the pair max delays must match the canonical forms within
// Clark-approximation tolerance on a generated circuit. Together with the
// arc-set property above this pins the arena/pruned/incremental path to
// the same oracle the original implementation was validated against.
func TestPropertyCanonicalMomentsMatchExactMC(t *testing.T) {
	c, a := analyzerFor(t, gen.Config{NumFFs: 10, NumGates: 70, Seed: 9})
	pairs := a.PairDelays()
	dim := a.M.Space.Dim()
	const nSamp = 3000
	rng := rand.New(rand.NewPCG(21, 22))
	sum := make([]float64, len(pairs))
	sumSq := make([]float64, len(pairs))
	delays := make([]float64, len(c.Nodes))
	g := make([]float64, dim)
	for s := 0; s < nSamp; s++ {
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		for node := range c.Nodes {
			delays[node] = a.GateDelay(node).Eval(g, rng.NormFloat64())
		}
		ex := a.ExactPairDelays(delays)
		if len(ex) != len(pairs) {
			t.Fatalf("sample %d: arc count changed: %d vs %d", s, len(ex), len(pairs))
		}
		for i, pv := range ex {
			sum[i] += pv.Max
			sumSq[i] += pv.Max * pv.Max
		}
	}
	for i := range pairs {
		mean := sum[i] / nSamp
		std := math.Sqrt(sumSq[i]/nSamp - mean*mean)
		if math.Abs(pairs[i].Max.Mean-mean)/mean > 0.03 {
			t.Errorf("pair %d→%d: canonical mean %v vs MC %v", pairs[i].Launch, pairs[i].Capture, pairs[i].Max.Mean, mean)
		}
		if std > 0 && math.Abs(pairs[i].Max.Std()-std)/std > 0.25 {
			t.Errorf("pair %d→%d: canonical std %v vs MC %v", pairs[i].Launch, pairs[i].Capture, pairs[i].Max.Std(), std)
		}
	}
}

// editTargets picks representative edit sites: a gate driving a capture D
// pin (guaranteed on-path) and a DFF (clk→Q edit).
func editTargets(c *ckt.Circuit) (onPathGate, dff int) {
	onPathGate, dff = -1, -1
	for _, f := range c.FFs() {
		fi := c.Nodes[f].Fanin
		if len(fi) > 0 && c.Nodes[fi[0]].Kind.IsGate() {
			return fi[0], f
		}
	}
	return
}

// TestRepropagateConeByteIdenticalToFull is the incremental-analysis
// contract: after delay edits, RepropagateCone on a fork must return pairs
// bit-identical to a full PairDelays on a freshly built analyzer carrying
// the same edits — every Mean, Rand, and Sens entry compared with ==.
func TestRepropagateConeByteIdenticalToFull(t *testing.T) {
	c, a := analyzerFor(t, gen.Config{NumFFs: 30, NumGates: 300, Seed: 6})
	a.PairDelays()
	gate, dff := editTargets(c)
	if gate < 0 || dff < 0 {
		t.Fatal("generated circuit has no gate-driven capture")
	}
	edits := []struct {
		node  int
		delta float64
	}{
		{gate, 37.5},
		{dff, -4.25},
	}

	f := a.Fork()
	nodes := make([]int, 0, len(edits))
	for _, e := range edits {
		f.AddDelay(e.node, e.delta)
		nodes = append(nodes, e.node)
	}
	incr := f.RepropagateCone(nodes...)

	fresh, err := New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edits {
		fresh.AddDelay(e.node, e.delta)
	}
	requireSamePairs(t, "incremental vs full", incr, fresh.PairDelays())
}

// TestRepropagateConeOffPathNoOp: an edit at a node no pair can observe
// (a gate feeding only primary outputs, or a port) must leave every pair
// bit-exactly unchanged — the cheap case the reverse-reachability pruning
// exists for.
func TestRepropagateConeOffPathNoOp(t *testing.T) {
	c := ckt.New("offpath")
	ff0 := c.MustAddNode("ff0", ckt.DFF)
	g := c.MustAddNode("g", ckt.Buf)
	ff1 := c.MustAddNode("ff1", ckt.DFF)
	og := c.MustAddNode("og", ckt.Not) // feeds only the output port
	out := c.MustAddNode("out", ckt.Output)
	in := c.MustAddNode("in", ckt.Input)
	ig := c.MustAddNode("ig", ckt.Buf) // PI-driven, not FF-launched
	out2 := c.MustAddNode("out2", ckt.Output)
	c.MustConnect(ff0, g)
	c.MustConnect(g, ff1)
	c.MustConnect(ff1, ff0)
	c.MustConnect(ff0, og)
	c.MustConnect(og, out)
	c.MustConnect(in, ig)
	c.MustConnect(ig, out2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	before := clonePairs(a.PairDelays())
	f := a.Fork()
	for _, node := range []int{og, ig, in, out} {
		f.AddDelay(node, 500)
	}
	requireSamePairs(t, "off-path edits", f.RepropagateCone(og, ig, in, out), before)
}

// TestForkIsolation: edits and repropagation on a fork must never disturb
// the parent's arenas — the property that makes concurrent what-ifs on one
// shared prepared analyzer safe.
func TestForkIsolation(t *testing.T) {
	c, a := analyzerFor(t, gen.Config{NumFFs: 16, NumGates: 120, Seed: 8})
	before := clonePairs(a.PairDelays())
	gate, _ := editTargets(c)
	f := a.Fork()
	f.AddDelay(gate, 100)
	f.RepropagateCone(gate)
	requireSamePairs(t, "parent arena after fork edit", a.pairs, before)
	requireSamePairs(t, "parent re-propagation after fork edit", a.PairDelays(), before)
	if sameBits(f.GateDelay(gate), a.GateDelay(gate)) {
		t.Fatal("fork delay edit leaked into parent (or never applied)")
	}
}

// TestScratchSharedAcrossAnalyzers: the scratch free list is shared by
// every analyzer, so forks of a small and of a large circuit repropagating
// at once, from several goroutines, trade scratches sized for either. Each
// must still get the pairs a fresh analyzer computes for its edit.
func TestScratchSharedAcrossAnalyzers(t *testing.T) {
	type job struct {
		a    *Analyzer
		gate int
		want []Pair
	}
	var jobs []job
	for _, cfg := range []gen.Config{{NumFFs: 12, NumGates: 60, Seed: 3}, {NumFFs: 40, NumGates: 400, Seed: 4}} {
		c, a := analyzerFor(t, cfg)
		a.PairDelays()
		gate, _ := editTargets(c)
		_, ref := analyzerFor(t, cfg)
		ref.AddDelay(gate, 7)
		jobs = append(jobs, job{a, gate, clonePairs(ref.PairDelays())})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				f := j.a.Fork()
				f.AddDelay(j.gate, 7)
				got := f.RepropagateCone(j.gate)
				for p := range got {
					if !sameBits(got[p].Max, j.want[p].Max) || !sameBits(got[p].Min, j.want[p].Min) {
						errs <- fmt.Sprintf("pair %d differs after a shared-scratch repropagation", p)
						return
					}
				}
			}
		}(jobs[w%len(jobs)])
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRepropagateConeBeforePrepare: on an analyzer that has never run a
// full propagation, RepropagateCone must fall back to filling the whole
// arena rather than splicing into uninitialized pairs.
func TestRepropagateConeBeforePrepare(t *testing.T) {
	c, a := analyzerFor(t, gen.Config{NumFFs: 8, NumGates: 40, Seed: 1})
	_, b := analyzerFor(t, gen.Config{NumFFs: 8, NumGates: 40, Seed: 1})
	gate, _ := editTargets(c)
	a.AddDelay(gate, 10)
	b.AddDelay(gate, 10)
	requireSamePairs(t, "cold RepropagateCone", a.RepropagateCone(gate), b.PairDelays())
}

// TestMultiFaninDFFRejectedLoudly is the regression for the silent-arc-drop
// hazard: the pair extraction reads only Fanin[0] of a capture DFF, so a
// DFF with two drivers must be rejected by validation (and hence by New)
// instead of silently timing only one of its arcs.
func TestMultiFaninDFFRejectedLoudly(t *testing.T) {
	c := ckt.New("dualD")
	ff0 := c.MustAddNode("ff0", ckt.DFF)
	g1 := c.MustAddNode("g1", ckt.Buf)
	g2 := c.MustAddNode("g2", ckt.Buf)
	ff1 := c.MustAddNode("ff1", ckt.DFF)
	c.MustConnect(ff0, g1)
	c.MustConnect(ff0, g2)
	c.MustConnect(g1, ff1)
	c.MustConnect(g2, ff1) // second D driver: malformed
	c.MustConnect(ff1, ff0)
	if _, err := New(c, variation.NewModel(cells.Default())); err == nil {
		t.Fatal("multi-fanin DFF must be rejected, not silently single-arc timed")
	}
}

// TestPropagateZeroAllocsMultiWorker: warm PairDelays and RepropagateCone
// keep their //contract:allocfree promise when propagate fans out over
// several workers, on an analyzer and on a fork alike. AllocsPerRun pins
// GOMAXPROCS to 1, so each measured run sets it back to 2 itself (a no-op
// after the warm-up run) to keep the fan-out on any machine.
func TestPropagateZeroAllocsMultiWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, a := analyzerFor(t, gen.Config{NumFFs: 30, NumGates: 300, Seed: 6})
	gate, _ := editTargets(c)
	if gate < 0 {
		t.Fatal("generated circuit has no gate-driven capture")
	}
	a.PairDelays()
	for name, an := range map[string]*Analyzer{"analyzer": a, "fork": a.Fork()} {
		if avg := testing.AllocsPerRun(50, func() {
			runtime.GOMAXPROCS(2)
			an.PairDelays()
		}); avg != 0 {
			t.Errorf("%s: warm PairDelays allocates %v times per run, want 0", name, avg)
		}
		if avg := testing.AllocsPerRun(50, func() {
			runtime.GOMAXPROCS(2)
			an.AddDelay(gate, 1)
			an.RepropagateCone(gate)
		}); avg != 0 {
			t.Errorf("%s: warm RepropagateCone allocates %v times per run, want 0", name, avg)
		}
	}
}
