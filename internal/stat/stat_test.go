package stat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", m)
	}
	// Sample variance with n-1 denominator: sum sq dev = 32, 32/7.
	if v := Variance(xs); !almost(v, 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want %v", v, 32.0/7.0)
	}
	m, s := MeanStd(xs)
	if !almost(m, 5, 1e-12) || !almost(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("MeanStd = %v, %v", m, s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("variance of singleton should be 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); !almost(r, 1, 1e-12) {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); !almost(r, -1, 1e-12) {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("constant series should give r=0, got %v", r)
	}
	if r := Pearson([]float64{1, 2}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("length mismatch should give 0, got %v", r)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 3 + rng.IntN(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDF(t *testing.T) {
	cases := []struct{ z, p float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{2, 0.9772498680518208},
		{-1, 0.15865525393145707},
	}
	for _, c := range cases {
		if p := NormalCDF(c.z); !almost(p, c.p, 1e-12) {
			t.Fatalf("CDF(%v) = %v, want %v", c.z, p, c.p)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.8413, 0.9772, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !almost(got, p, 1e-9) {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	NormalQuantile(0)
}

func TestYield(t *testing.T) {
	y := Yield{Pass: 84, Total: 100}
	if !almost(y.Rate(), 0.84, 1e-12) || !almost(y.Percent(), 84, 1e-12) {
		t.Fatalf("rate = %v", y.Rate())
	}
	lo, hi := y.WilsonCI(0.95)
	if lo >= 0.84 || hi <= 0.84 {
		t.Fatalf("CI [%v,%v] should bracket the point estimate", lo, hi)
	}
	if lo < 0.75 || hi > 0.92 {
		t.Fatalf("CI [%v,%v] implausibly wide", lo, hi)
	}
	empty := Yield{}
	if empty.Rate() != 0 {
		t.Fatal("empty yield rate should be 0")
	}
	lo, hi = empty.WilsonCI(0.95)
	if lo != 0 || hi != 1 {
		t.Fatal("empty yield CI should be [0,1]")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0, 1.9, 2, 5, 9.9, 10, -1, 11})
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	// Bin 0 covers [0,2): values 0 and 1.9.
	if h.Counts[0] != 2 {
		t.Fatalf("bin0 = %d", h.Counts[0])
	}
	// Value 10 (== Hi) goes to last bin.
	if h.Counts[4] != 2 {
		t.Fatalf("bin4 = %d", h.Counts[4])
	}
	if c := h.BinCenter(0); !almost(c, 1, 1e-12) {
		t.Fatalf("bin center = %v", c)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero bins")
		}
	}()
	NewHistogram(0, 1, 0)
}

func TestCorrelationMatrix(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	c := []float64{4, 3, 2, 1}
	m := CorrelationMatrix([][]float64{a, b, c})
	if m[0][0] != 1 || m[1][1] != 1 || m[2][2] != 1 {
		t.Fatal("diagonal must be 1")
	}
	if !almost(m[0][1], 1, 1e-12) || !almost(m[0][2], -1, 1e-12) {
		t.Fatalf("m = %v", m)
	}
	if m[0][1] != m[1][0] {
		t.Fatal("matrix must be symmetric")
	}
}
