package timing

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cells"
	"repro/internal/ckt"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/variation"
)

func buildGraph(t *testing.T, ffs, gates int, seed uint64, skewFrac float64) *Graph {
	t.Helper()
	c, err := gen.Generate(gen.Config{NumFFs: ffs, NumGates: gates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	g := Build(a, nil)
	if skewFrac > 0 {
		sk := g.HoldSafeSkews(SkewSigma(g.Pairs, skewFrac), seed+1)
		g = g.WithSkew(sk)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := buildGraph(t, 20, 100, 3, 0)
	if g.NS != 20 || len(g.Pairs) == 0 {
		t.Fatalf("graph: NS=%d pairs=%d", g.NS, len(g.Pairs))
	}
	if g.Dim() != 3 {
		t.Fatalf("dim = %d", g.Dim())
	}
	for _, s := range g.Skew {
		if s != 0 {
			t.Fatal("nil skew must mean zero skew")
		}
	}
}

func TestRealizeDeterministicGivenRNG(t *testing.T) {
	g := buildGraph(t, 10, 60, 5, 0)
	ch1 := g.Realize(rand.New(rand.NewPCG(1, 2)))
	ch2 := g.Realize(rand.New(rand.NewPCG(1, 2)))
	for p := range g.Pairs {
		if ch1.DMax[p] != ch2.DMax[p] || ch1.DMin[p] != ch2.DMin[p] {
			t.Fatal("same RNG must give same chip")
		}
	}
}

func TestRealizeInvariants(t *testing.T) {
	g := buildGraph(t, 15, 80, 7, 0)
	rng := rand.New(rand.NewPCG(9, 9))
	ch := g.NewChip()
	for s := 0; s < 200; s++ {
		g.RealizeInto(rng, ch)
		for p := range g.Pairs {
			if ch.DMin[p] > ch.DMax[p] {
				t.Fatalf("sample %d pair %d: min %v > max %v", s, p, ch.DMin[p], ch.DMax[p])
			}
			if ch.DMax[p] <= 0 {
				t.Fatalf("non-positive max delay %v", ch.DMax[p])
			}
		}
		for f := 0; f < g.NS; f++ {
			if ch.Setup[f] < 0 || ch.Hold[f] < 0 {
				t.Fatal("negative FF timing")
			}
		}
	}
}

func TestSetupHoldBoundsShape(t *testing.T) {
	g := buildGraph(t, 10, 50, 11, 0)
	ch := g.NominalChip()
	// At a huge period every setup bound is positive.
	for p := range g.Pairs {
		if g.SetupBound(ch, p, 1e9) < 0 {
			t.Fatal("setup bound must be positive at huge period")
		}
	}
	// At period 0 every setup bound is negative (delays are positive).
	for p := range g.Pairs {
		if g.SetupBound(ch, p, 0) >= 0 {
			t.Fatal("setup bound must be negative at period 0")
		}
	}
	// Required period is exactly the point where the worst pair crosses 0.
	T := g.RequiredPeriod(ch)
	worst := math.Inf(1)
	for p := range g.Pairs {
		if b := g.SetupBound(ch, p, T); b < worst {
			worst = b
		}
	}
	if math.Abs(worst) > 1e-9 {
		t.Fatalf("worst setup bound at required period = %v, want 0", worst)
	}
	if !g.FeasibleAtZero(ch, T) {
		t.Fatal("nominal chip must be feasible at its required period (nominal holds are satisfied)")
	}
	if g.FeasibleAtZero(ch, T*0.9) {
		t.Fatal("chip must fail below its required period")
	}
}

func TestHoldNominalMostlySatisfied(t *testing.T) {
	// With moderate injected skews, the nominal chip keeps hold slack on
	// (nearly) all pairs; the paper's circuits behave the same way (their
	// original yields depend on the period, which hold violations don't).
	g := buildGraph(t, 60, 300, 13, 0.025)
	ch := g.NominalChip()
	if v := g.HoldViolationsAtZero(ch); v > 0 {
		t.Fatalf("nominal hold violations with small skew: %d", v)
	}
}

func TestSkewsChangeCriticality(t *testing.T) {
	c, err := gen.Generate(gen.Config{NumFFs: 30, NumGates: 150, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	g0 := Build(a, nil)
	sigma := SkewSigma(g0.Pairs, 0.03)
	if sigma <= 0 {
		t.Fatal("sigma must be positive")
	}
	sk := g0.HoldSafeSkews(sigma, 99)
	nonzero := false
	for _, s := range sk {
		if s != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("hold-safe skews degenerated to zero")
	}
	g1 := g0.WithSkew(sk)
	ch := g0.NominalChip()
	// Setup bounds of non-self pairs must move with the skew.
	changed := false
	for p := range g0.Pairs {
		if g0.Pairs[p].Launch == g0.Pairs[p].Capture {
			continue
		}
		if math.Abs(g0.SetupBound(ch, p, 500)-g1.SetupBound(ch, p, 500)) > 1e-12 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("skews should change setup bounds of non-self pairs")
	}
	// Skews are deterministic in the seed.
	sk2 := g0.HoldSafeSkews(sigma, 99)
	for i := range sk {
		if sk[i] != sk2[i] {
			t.Fatal("skew generation must be deterministic")
		}
	}
	// And hold-safe: nominal chip has no hold violations.
	if v := g1.HoldViolationsAtZero(ch); v != 0 {
		t.Fatalf("hold-safe skews left %d nominal violations", v)
	}
}

func TestPairAdjacency(t *testing.T) {
	g := buildGraph(t, 12, 40, 19, 0)
	adj := g.PairAdjacency()
	count := 0
	for ff, ps := range adj {
		for _, p := range ps {
			if g.Pairs[p].Launch != ff && g.Pairs[p].Capture != ff {
				t.Fatal("adjacency lists a pair not touching the FF")
			}
			count++
		}
	}
	// Every pair appears twice (launch + capture) unless self-loop.
	selfLoops := 0
	for _, p := range g.Pairs {
		if p.Launch == p.Capture {
			selfLoops++
		}
	}
	if count != 2*len(g.Pairs)-selfLoops {
		t.Fatalf("adjacency count %d, pairs %d, self %d", count, len(g.Pairs), selfLoops)
	}
}

func TestFFPairIDs(t *testing.T) {
	g := buildGraph(t, 8, 30, 23, 0)
	ids := g.FFPairIDs()
	if len(ids) != len(g.Pairs) {
		t.Fatal("length mismatch")
	}
	for i, pr := range g.Pairs {
		if ids[i][0] != pr.Launch || ids[i][1] != pr.Capture {
			t.Fatal("id mismatch")
		}
	}
}

func TestBuildPanicsOnSkewMismatch(t *testing.T) {
	c, _ := gen.Generate(gen.Config{NumFFs: 5, NumGates: 10, Seed: 1})
	a, _ := ssta.New(c, variation.NewModel(cells.Default()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(a, []float64{1, 2}) // wrong length
}

func TestRealizeWithGlobalsPinsDie(t *testing.T) {
	g := buildGraph(t, 10, 60, 29, 0)
	gvec := make([]float64, g.Dim())
	for i := range gvec {
		gvec[i] = 2 // strongly slow die
	}
	chSlow := g.NewChip()
	g.RealizeWithGlobals(rand.New(rand.NewPCG(1, 1)), gvec, chSlow)
	for i := range gvec {
		gvec[i] = -2 // fast die
	}
	chFast := g.NewChip()
	g.RealizeWithGlobals(rand.New(rand.NewPCG(1, 1)), gvec, chFast)
	slow := g.RequiredPeriod(chSlow)
	fast := g.RequiredPeriod(chFast)
	if slow <= fast {
		t.Fatalf("slow die %v should need a longer period than fast die %v", slow, fast)
	}
}

func TestTinyHandBuiltConstraintValues(t *testing.T) {
	// Two FFs, one inverter between them; verify bound arithmetic by hand.
	c := ckt.New("two")
	ff0 := c.MustAddNode("ff0", ckt.DFF)
	inv := c.MustAddNode("inv", ckt.Not)
	ff1 := c.MustAddNode("ff1", ckt.DFF)
	c.MustConnect(ff0, inv)
	c.MustConnect(inv, ff1)
	c.MustConnect(ff1, ff0)
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	skew := []float64{10, -5}
	g := Build(a, skew)
	ch := g.NominalChip()
	var p01 = -1
	for p := range g.Pairs {
		if g.Pairs[p].Launch == 0 && g.Pairs[p].Capture == 1 {
			p01 = p
		}
	}
	if p01 < 0 {
		t.Fatal("pair 0→1 missing")
	}
	T := 500.0
	want := T - ch.Setup[1] - ch.DMax[p01] + skew[1] - skew[0]
	if got := g.SetupBound(ch, p01, T); math.Abs(got-want) > 1e-12 {
		t.Fatalf("setup bound = %v want %v", got, want)
	}
	wantHold := ch.DMin[p01] - ch.Hold[1] + skew[0] - skew[1]
	if got := g.HoldBound(ch, p01); math.Abs(got-wantHold) > 1e-12 {
		t.Fatalf("hold bound = %v want %v", got, wantHold)
	}
}

// TestSparseEvalMatchesDense pins both kernels BuildPairs can select
// against the dense canonical forms, bit for bit: the unrolled realize3 on
// a single-region graph (every form loads on exactly sources [0 1 2]) and
// the sparse loop on a two-region graph. Each input also asserts which
// kernel the graph selected, so a silent fallback cannot pass.
func TestSparseEvalMatchesDense(t *testing.T) {
	twoRegions := func(t *testing.T) *Graph {
		c, err := gen.Generate(gen.Config{NumFFs: 20, NumGates: 100, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		m := &variation.Model{Space: variation.Space{Params: 3, Regions: 2}, Lib: cells.Default()}
		m.RegionOf = func(node int) int { return node % 2 }
		a, err := ssta.New(c, m)
		if err != nil {
			t.Fatal(err)
		}
		g := Build(a, nil)
		return g.WithSkew(g.HoldSafeSkews(SkewSigma(g.Pairs, 0.02), 22))
	}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) *Graph
		packed bool // realize3 selected, else the sparse loop
	}{
		{"single-region", func(t *testing.T) *Graph { return buildGraph(t, 20, 100, 21, 0.02) }, true},
		{"two-region", twoRegions, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			if packed := g.pairs3 != nil; packed != tc.packed || packed == (g.maxSp != nil) {
				t.Fatalf("kernel selection: packed=%v sparse=%v, want packed=%v", packed, g.maxSp != nil, tc.packed)
			}
			dense := DenseOf(g)
			chS := g.NewChip()
			chD := dense.NewChip()
			for k := 0; k < 10; k++ {
				g.RealizeInto(rand.New(rand.NewPCG(7, uint64(k))), chS)
				dense.RealizeInto(rand.New(rand.NewPCG(7, uint64(k))), chD)
				for p := range g.Pairs {
					if math.Float64bits(chS.DMax[p]) != math.Float64bits(chD.DMax[p]) ||
						math.Float64bits(chS.DMin[p]) != math.Float64bits(chD.DMin[p]) {
						t.Fatalf("sample %d pair %d: built (%v,%v) vs dense (%v,%v)",
							k, p, chS.DMax[p], chS.DMin[p], chD.DMax[p], chD.DMin[p])
					}
				}
				for f := 0; f < g.NS; f++ {
					if math.Float64bits(chS.Setup[f]) != math.Float64bits(chD.Setup[f]) ||
						math.Float64bits(chS.Hold[f]) != math.Float64bits(chD.Hold[f]) {
						t.Fatalf("sample %d FF %d: built FF timing diverges from dense", k, f)
					}
				}
			}
		})
	}
}

func TestRealizeIntoZeroAllocs(t *testing.T) {
	g := buildGraph(t, 20, 100, 23, 0)
	rng := rand.New(rand.NewPCG(3, 4))
	ch := g.NewChip()
	g.RealizeInto(rng, ch) // warm the chip-owned scratch
	if avg := testing.AllocsPerRun(100, func() { g.RealizeInto(rng, ch) }); avg != 0 {
		t.Fatalf("warm RealizeInto allocates %v times per run, want 0", avg)
	}
}
