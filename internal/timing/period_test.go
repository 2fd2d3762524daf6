package timing

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/variation"
)

// checkScan scans ch with a top list of k and checks it against the
// certificate and the oracles: the required period and hold verdict bit
// for bit, the list descending and holding the k largest positive needs,
// every unlisted need at most the last listed one (or at most 0 when the
// list is short), and the violator count and first violator.
func checkScan(t *testing.T, g *Graph, ch *Chip, k int) (nviol int) {
	t.Helper()
	top := make([]Need, k)
	ntop, viol, nviol, ok := g.ScanNeeds(ch, top)
	if !ok {
		t.Fatal("a built graph did not scan")
	}
	top = top[:ntop]
	req, holdOK, _ := g.Certify(ch)
	got := 0.0
	if ntop > 0 {
		got = top[0].Value
	}
	if math.Float64bits(got) != math.Float64bits(req) {
		t.Fatalf("scanned req %v, certified %v", got, req)
	}
	if (nviol == 0) != holdOK || nviol != g.HoldViolationsAtZero(ch) {
		t.Fatalf("scanned %d violators, certified holdOK %v, oracle %d", nviol, holdOK, g.HoldViolationsAtZero(ch))
	}
	first := int32(-1)
	listed := map[int32]bool{}
	for i, n := range top {
		listed[n.Pair] = true
		pr := &g.Pairs[n.Pair]
		need := ch.DMax[n.Pair] + ch.Setup[pr.Capture] + g.Skew[pr.Launch] - g.Skew[pr.Capture]
		if math.Float64bits(need) != math.Float64bits(n.Value) || !(n.Value > 0) {
			t.Fatalf("listed need %d of pair %d is %v, its need %v", i, n.Pair, n.Value, need)
		}
		if i > 0 && top[i-1].Value < n.Value {
			t.Fatalf("list not descending at %d: %v", i, top)
		}
	}
	bound := 0.0
	if ntop == k {
		bound = top[k-1].Value
	}
	for p := range g.Pairs {
		if g.HoldBound(ch, p) < 0 && first < 0 {
			first = int32(p)
		}
		if listed[int32(p)] {
			continue
		}
		pr := &g.Pairs[p]
		if need := ch.DMax[p] + ch.Setup[pr.Capture] + g.Skew[pr.Launch] - g.Skew[pr.Capture]; need > bound {
			t.Fatalf("unlisted pair %d needs %v above the list's bound %v", p, need, bound)
		}
	}
	if viol != first {
		t.Fatalf("first violator %d, scan says %d", first, viol)
	}
	return nviol
}

// TestScanNeeds checks ScanNeeds on realized chips of hold-safe and of
// hold-violating skews, with list lengths from 1 to longer than the pair
// count, and on chips whose needs all fall to 0 or below.
func TestScanNeeds(t *testing.T) {
	safe := buildGraph(t, 30, 200, 41, 0.03)
	wild := safe.WithSkew(GenerateSkews(safe.NS, 0.05*SkewSigma(safe.Pairs, 1), 5))
	multi := 0 // chips with two or more hold violators
	for _, g := range []*Graph{safe, wild} {
		ch := g.NewChip()
		for k := uint64(0); k < 200; k++ {
			g.RealizeInto(rand.New(rand.NewPCG(k, 3)), ch)
			for _, n := range []int{1, 2, 4, len(g.Pairs) + 3} {
				if checkScan(t, g, ch, n) > 1 {
					multi++
				}
			}
		}
		for p := range ch.DMax {
			ch.DMax[p] = -1e6
		}
		checkScan(t, g, ch, 4)
	}
	if _, _, _, ok := DenseOf(safe).ScanNeeds(safe.NewChip(), make([]Need, 4)); ok {
		t.Fatal("a hand-built graph scanned")
	}
	if multi == 0 {
		t.Fatal("no chip with several hold violators")
	}
}

// TestPairNeedAtMatchesRealized: a pair's need and hold bound evaluated
// from the deviates alone equal, bit for bit, the values read from the
// chip those deviates realize.
func TestPairNeedAtMatchesRealized(t *testing.T) {
	g := buildGraph(t, 30, 200, 43, 0.03)
	ch := g.NewChip()
	for k := uint64(0); k < 50; k++ {
		g.RealizeInto(rand.New(rand.NewPCG(k, 9)), ch)
		dev := ch.Deviates()
		np := len(g.Pairs)
		for p := range g.Pairs {
			pr := &g.Pairs[p]
			need, hb := g.PairNeedAt(p, dev[0], dev[1], dev[2], dev[3+p], dev[3+np+pr.Capture])
			want := ch.DMax[p] + ch.Setup[pr.Capture] + g.Skew[pr.Launch] - g.Skew[pr.Capture]
			if math.Float64bits(need) != math.Float64bits(want) {
				t.Fatalf("chip %d pair %d: need %v, realized %v", k, p, need, want)
			}
			if wantH := g.HoldBound(ch, p); math.Float64bits(hb) != math.Float64bits(wantH) {
				t.Fatalf("chip %d pair %d: hold bound %v, realized %v", k, p, hb, wantH)
			}
		}
	}
}

// TestChangedPairs: an edit changes exactly the pairs whose records moved
// plus the pairs capturing at a flip-flop whose record moved; graphs of
// other skews or kernels are not comparable.
func TestChangedPairs(t *testing.T) {
	c, err := gen.Generate(gen.Config{NumFFs: 30, NumGates: 200, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	base := Build(a, nil)
	if got, ok := base.ChangedPairs(base); !ok || len(got) != 0 {
		t.Fatalf("a graph against itself: %v, %v", got, ok)
	}
	// A launch clk→Q edit moves every pair of that launch.
	f := a.Fork()
	ff := base.Pairs[0].Launch
	f.AddDelay(c.FFs()[ff], 3)
	edited := BuildPairs(f, f.RepropagateCone(c.FFs()[ff]), base.Skew)
	var want []int32
	for p := range base.Pairs {
		if base.Pairs[p].Launch == ff {
			want = append(want, int32(p))
		}
	}
	if got, ok := edited.ChangedPairs(base); !ok || !slices.Equal(got, want) {
		t.Fatalf("clk→Q edit of FF %d: changed %v (ok %v), want %v", ff, got, ok, want)
	}
	// A moved flip-flop record moves the pairs it captures.
	moved := *edited
	moved.ffs3 = slices.Clone(edited.ffs3)
	capFF := base.Pairs[len(base.Pairs)-1].Capture
	moved.ffs3[capFF].b.mean = math.Nextafter(moved.ffs3[capFF].b.mean, math.Inf(1))
	for p := range base.Pairs {
		if base.Pairs[p].Capture == capFF && !slices.Contains(want, int32(p)) {
			want = append(want, int32(p))
		}
	}
	slices.Sort(want)
	if got, ok := moved.ChangedPairs(base); !ok || !slices.Equal(got, want) {
		t.Fatalf("moved FF %d record: changed %v, want %v", capFF, got, want)
	}
	// Records compare bit for bit: −0 in place of +0 is a change.
	pos, neg := *base, *base
	pos.pairs3, neg.pairs3 = slices.Clone(base.pairs3), slices.Clone(base.pairs3)
	pos.pairs3[1].a.mean, neg.pairs3[1].a.mean = 0, math.Copysign(0, -1)
	if got, _ := neg.ChangedPairs(&pos); !slices.Equal(got, []int32{1}) {
		t.Fatalf("−0 against +0: changed %v, want [1]", got)
	}
	skewed := base.WithSkew(GenerateSkews(base.NS, 1, 3))
	if _, ok := skewed.ChangedPairs(base); ok {
		t.Fatal("graphs of different skews compared")
	}
	if _, ok := DenseOf(base).ChangedPairs(base); ok {
		t.Fatal("a hand-built graph compared")
	}
}
