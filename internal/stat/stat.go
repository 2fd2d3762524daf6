// Package stat provides the descriptive statistics and distribution
// functions used throughout the buffer-insertion flow: means/variances of
// tuning values, Pearson correlation for buffer grouping, normal tail
// probabilities for yield sanity checks, empirical yield with Wilson
// confidence intervals, and the sequential half-widths of adaptive yield
// evaluation.
package stat

import "math"

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// MeanStd returns both the mean and the sample standard deviation in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	m := Mean(xs)
	if n < 2 {
		return m, 0
	}
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return m, math.Sqrt(s / float64(n-1))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either sequence has zero variance (a constant buffer
// tuning correlates with nothing) or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// NormalCDF returns P(Z ≤ z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z with NormalCDF(z) = p, using the
// Acklam rational approximation refined by one Halley step. It panics for
// p outside (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stat: NormalQuantile requires 0 < p < 1")
	}
	// Acklam's approximation coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// Yield is an empirical pass rate with its sample count, used to report
// circuit yield before and after buffer insertion.
type Yield struct {
	Pass  int
	Total int
}

// Rate returns the pass fraction in [0,1]; 0 for an empty sample set.
func (y Yield) Rate() float64 {
	if y.Total == 0 {
		return 0
	}
	return float64(y.Pass) / float64(y.Total)
}

// Percent returns the pass rate in percent.
func (y Yield) Percent() float64 { return 100 * y.Rate() }

// WilsonCI returns the Wilson score confidence interval for the pass rate at
// the given confidence level (e.g. 0.95). Bounds are clamped to [0,1].
func (y Yield) WilsonCI(level float64) (lo, hi float64) {
	if y.Total == 0 {
		return 0, 1
	}
	z := NormalQuantile(0.5 + level/2)
	n := float64(y.Total)
	p := y.Rate()
	den := 1 + z*z/n
	center := (p + z*z/(2*n)) / den
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / den
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Histogram is a fixed-bin histogram over a closed interval, used to report
// the tuning-value distributions of Fig. 5.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Under and Over count samples falling outside [Lo, Hi].
	Under, Over int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi].
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stat: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stat: histogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x > h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Counts) {
			i--
		}
		h.Counts[i]++
	}
}

// AddAll records every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// CorrelationMatrix returns the symmetric Pearson correlation matrix of the
// rows of series. series[i] must all share the same length.
func CorrelationMatrix(series [][]float64) [][]float64 {
	n := len(series)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := Pearson(series[i], series[j])
			m[i][j] = r
			m[j][i] = r
		}
	}
	return m
}
