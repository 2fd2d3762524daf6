package variation

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/cells"
	"repro/internal/ckt"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func form(mean float64, sens []float64, r float64) Canonical {
	return Canonical{Mean: mean, Sens: append([]float64(nil), sens...), Rand: r}
}

func TestVarianceStd(t *testing.T) {
	c := form(10, []float64{3, 4}, 0)
	if !almost(c.Variance(), 25, 1e-12) || !almost(c.Std(), 5, 1e-12) {
		t.Fatalf("var=%v std=%v", c.Variance(), c.Std())
	}
	d := form(0, []float64{0, 0}, 2)
	if !almost(d.Variance(), 4, 1e-12) {
		t.Fatalf("var=%v", d.Variance())
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	corr := func(c, d Canonical) float64 { return c.Covariance(d) / (c.Std() * d.Std()) }
	a := form(0, []float64{1, 0}, 0)
	b := form(0, []float64{1, 0}, 0)
	if !almost(corr(a, b), 1, 1e-12) {
		t.Fatal("identical forms should correlate 1")
	}
	c := form(0, []float64{0, 1}, 0)
	if !almost(corr(a, c), 0, 1e-12) {
		t.Fatal("orthogonal forms should correlate 0")
	}
	d := form(5, []float64{0, 0}, 0)
	if a.Covariance(d) != 0 {
		t.Fatal("deterministic form has zero covariance")
	}
}

func TestAddMoments(t *testing.T) {
	a := form(1, []float64{2, 0}, 3)
	b := form(4, []float64{1, 5}, 1)
	s := a.Add(b)
	if !almost(s.Mean, 5, 1e-12) {
		t.Fatalf("mean=%v", s.Mean)
	}
	// Var = (2+1)² + 5² + 3² + 1² (independent parts RSS).
	if !almost(s.Variance(), 9+25+9+1, 1e-12) {
		t.Fatalf("var=%v", s.Variance())
	}
}

func TestScaleNeg(t *testing.T) {
	a := form(2, []float64{1, -1}, 2)
	s := a.Scale(-3)
	if !almost(s.Mean, -6, 1e-12) || !almost(s.Sens[0], -3, 1e-12) || !almost(s.Rand, 6, 1e-12) {
		t.Fatalf("scale = %+v", s)
	}
	n := a.Neg()
	if !almost(n.Mean, -2, 1e-12) || n.Rand < 0 {
		t.Fatalf("neg = %+v", n)
	}
	k := a.AddConst(10)
	if !almost(k.Mean, 12, 1e-12) {
		t.Fatalf("addconst = %+v", k)
	}
}

func TestMaxDominated(t *testing.T) {
	// When c ≫ d the max is essentially c.
	c := form(100, []float64{1}, 0)
	d := form(0, []float64{1}, 0)
	m := c.Max(d)
	if !almost(m.Mean, 100, 1e-6) {
		t.Fatalf("mean=%v", m.Mean)
	}
	if !almost(m.Sens[0], 1, 1e-6) {
		t.Fatalf("sens=%v", m.Sens[0])
	}
}

func TestMaxDeterministicTie(t *testing.T) {
	c := form(3, []float64{1}, 0)
	d := form(5, []float64{1}, 0)
	// Perfectly correlated equal-variance forms: difference deterministic.
	m := c.Max(d)
	if !almost(m.Mean, 5, 1e-12) {
		t.Fatalf("max = %+v", m)
	}
	m2 := d.Max(c)
	if !almost(m2.Mean, 5, 1e-12) {
		t.Fatalf("max = %+v", m2)
	}
}

func TestMaxSymmetricIndependent(t *testing.T) {
	// max of two iid N(0,1): mean = 1/√π, var = 1 − 1/π.
	a := form(0, []float64{}, 1)
	b := form(0, []float64{}, 1)
	m := a.Max(b)
	if !almost(m.Mean, 1/math.Sqrt(math.Pi), 1e-9) {
		t.Fatalf("mean = %v want %v", m.Mean, 1/math.Sqrt(math.Pi))
	}
	if !almost(m.Variance(), 1-1/math.Pi, 1e-9) {
		t.Fatalf("var = %v want %v", m.Variance(), 1-1/math.Pi)
	}
}

func TestMaxAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	a := form(10, []float64{3, 1}, 2)
	b := form(12, []float64{1, 2}, 3)
	m := a.Max(b)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for k := 0; k < n; k++ {
		g := []float64{rng.NormFloat64(), rng.NormFloat64()}
		va := a.Eval(g, rng.NormFloat64())
		vb := b.Eval(g, rng.NormFloat64())
		v := math.Max(va, vb)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if !almost(m.Mean, mean, 0.05) {
		t.Fatalf("canonical mean %v vs MC %v", m.Mean, mean)
	}
	if !almost(m.Variance(), variance, 0.2) {
		t.Fatalf("canonical var %v vs MC %v", m.Variance(), variance)
	}
}

func TestMinIsNegMaxNeg(t *testing.T) {
	a := form(10, []float64{3, 1}, 2)
	b := form(12, []float64{1, 2}, 3)
	mn := a.Min(b)
	ref := a.Neg().Max(b.Neg()).Neg()
	if !almost(mn.Mean, ref.Mean, 1e-12) || !almost(mn.Variance(), ref.Variance(), 1e-12) {
		t.Fatal("Min must equal -Max(-a,-b)")
	}
	// Min mean must be ≤ both means.
	if mn.Mean > a.Mean || mn.Mean > b.Mean {
		t.Fatalf("min mean %v above inputs", mn.Mean)
	}
}

func TestMaxPropertyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		dim := 1 + rng.IntN(3)
		mk := func() Canonical {
			s := make([]float64, dim)
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			return form(rng.NormFloat64()*10, s, math.Abs(rng.NormFloat64()))
		}
		a, b := mk(), mk()
		m := a.Max(b)
		// E[max] ≥ max(E[a],E[b]) for jointly normal (Jensen-type bound).
		if m.Mean < math.Max(a.Mean, b.Mean)-1e-9 {
			return false
		}
		// Rand coefficient non-negative.
		return m.Rand >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEval(t *testing.T) {
	c := form(5, []float64{2, -1}, 3)
	v := c.Eval([]float64{1, 2}, -1)
	if !almost(v, 5+2-2-3, 1e-12) {
		t.Fatalf("eval = %v", v)
	}
}

func TestEvalPanicsOnDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	form(0, []float64{1}, 0).Eval([]float64{1, 2}, 0)
}

func TestSpace(t *testing.T) {
	s := Space{Params: 3, Regions: 2}
	if s.Dim() != 6 {
		t.Fatalf("dim = %d", s.Dim())
	}
	if s.SourceIndex(2, 1) != 5 || s.SourceIndex(0, 0) != 0 {
		t.Fatal("source index broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-space source")
		}
	}()
	s.SourceIndex(3, 0)
}

func TestModelGateDelay(t *testing.T) {
	lib := cells.Default()
	m := NewModel(lib)
	c := ckt.New("t")
	a := c.MustAddNode("a", ckt.Input)
	g := c.MustAddNode("g", ckt.Nand)
	b := c.MustAddNode("b", ckt.Input)
	ff := c.MustAddNode("ff", ckt.DFF)
	c.MustConnect(a, g)
	c.MustConnect(b, g)
	c.MustConnect(g, ff)

	d, err := m.GateDelay(c, g)
	if err != nil {
		t.Fatal(err)
	}
	cell := lib.MustCell(ckt.Nand)
	if !almost(d.Mean, cell.Nominal(1), 1e-12) {
		t.Fatalf("mean = %v want %v", d.Mean, cell.Nominal(1))
	}
	if d.Std() <= 0 {
		t.Fatal("gate delay must vary")
	}
	// Sensitivities proportional to nominal: relative std matches cell spec.
	wantRel := math.Hypot(math.Hypot(cell.Sens[0], cell.Sens[1]), math.Hypot(cell.Sens[2], cell.RandFrac))
	if !almost(d.Std()/d.Mean, wantRel, 1e-9) {
		t.Fatalf("relative std = %v want %v", d.Std()/d.Mean, wantRel)
	}
	// Input ports have zero delay and zero variation.
	din, err := m.GateDelay(c, a)
	if err != nil {
		t.Fatal(err)
	}
	if din.Mean != 0 || din.Std() != 0 {
		t.Fatalf("input port delay = %+v", din)
	}
}

func TestModelFFTimings(t *testing.T) {
	lib := cells.Default()
	m := NewModel(lib)
	c := ckt.New("t")
	ff := c.MustAddNode("ff", ckt.DFF)
	inv := c.MustAddNode("inv", ckt.Not)
	c.MustConnect(ff, inv)
	c.MustConnect(inv, ff)

	cq := m.ClkToQ(c, ff)
	if cq.Mean <= 0 || cq.Std() <= 0 {
		t.Fatalf("clk2q = %+v", cq)
	}
	su := m.Setup(c, ff)
	if !almost(su.Mean, lib.SetupTime, 1e-9) || su.Std() <= 0 {
		t.Fatalf("setup = %+v", su)
	}
	h := m.Hold(c, ff)
	if !almost(h.Mean, lib.HoldTime, 1e-9) || h.Std() <= 0 {
		t.Fatalf("hold = %+v", h)
	}
	// Setup variability smaller than clk2q variability in absolute terms.
	if su.Std() >= cq.Std() {
		t.Fatal("setup sigma should be below clk2q sigma")
	}
}

func TestModelRegions(t *testing.T) {
	lib := cells.Default()
	m := &Model{Space: Space{Params: 3, Regions: 2}, Lib: lib}
	c := ckt.New("t")
	a := c.MustAddNode("a", ckt.Input)
	g1 := c.MustAddNode("g1", ckt.Not)
	g2 := c.MustAddNode("g2", ckt.Not)
	c.MustConnect(a, g1)
	c.MustConnect(a, g2)
	m.RegionOf = func(node int) int {
		if node == g2 {
			return 1
		}
		return 0
	}
	d1, _ := m.GateDelay(c, g1)
	d2, _ := m.GateDelay(c, g2)
	// Different regions: global sensitivities land in different slots, so
	// correlation comes only from... nothing shared here.
	if r := d1.Covariance(d2); !almost(r, 0, 1e-12) {
		t.Fatalf("cross-region covariance = %v", r)
	}
}
