// Package stat provides the descriptive statistics, distribution functions
// and covering utilities used throughout the buffer-insertion flow:
// means/variances of tuning values, Pearson correlation for buffer grouping,
// normal tail probabilities for yield sanity checks, empirical yield with
// Wilson confidence intervals, and the sliding max-cover window used to
// assign buffer range lower bounds (paper §III-A4).
package stat

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty slices.
var ErrEmpty = errors.New("stat: empty input")

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

// MinMax returns the smallest and largest element of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Quantile returns the q-th empirical quantile (0 ≤ q ≤ 1) of xs using
// linear interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stat: quantile out of [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1], nil
	}
	return s[i]*(1-frac) + s[i+1]*frac, nil
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

// MaxCoverWindow slides a closed window of the given width over the points
// and returns the left edge that covers the most points, together with the
// covered count. Ties prefer the window whose covered points have the
// smallest spread around the window, matching the paper's range-window
// assignment (§III-A4): the window is anchored at observed points, so the
// optimal left edge is always one of the point values.
func MaxCoverWindow(points []float64, width float64) (left float64, covered int, err error) {
	if len(points) == 0 {
		return 0, 0, ErrEmpty
	}
	if width < 0 {
		return 0, 0, errors.New("stat: negative window width")
	}
	s := append([]float64(nil), points...)
	sort.Float64s(s)
	best, bestCount := s[0], 0
	j := 0
	for i := range s {
		if j < i {
			j = i
		}
		for j < len(s) && s[j] <= s[i]+width {
			j++
		}
		if j-i > bestCount {
			bestCount = j - i
			best = s[i]
		}
	}
	return best, bestCount, nil
}

// WeightedMaxCoverWindow is MaxCoverWindow over weighted points: value v with
// weight w counts w times. Weights must be non-negative.
func WeightedMaxCoverWindow(values []float64, weights []int, width float64) (left float64, covered int, err error) {
	if len(values) != len(weights) {
		return 0, 0, errors.New("stat: values/weights length mismatch")
	}
	if len(values) == 0 {
		return 0, 0, ErrEmpty
	}
	type vw struct {
		v float64
		w int
	}
	s := make([]vw, 0, len(values))
	for i, v := range values {
		if weights[i] < 0 {
			return 0, 0, errors.New("stat: negative weight")
		}
		s = append(s, vw{v, weights[i]})
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	best, bestCount := s[0].v, -1
	j, sum := 0, 0
	for i := range s {
		if j < i {
			j, sum = i, 0
		}
		if j == i && sum == 0 {
			// (re)start accumulation at i
			sum = 0
			j = i
		}
		for j < len(s) && s[j].v <= s[i].v+width {
			sum += s[j].w
			j++
		}
		if sum > bestCount {
			bestCount = sum
			best = s[i].v
		}
		sum -= s[i].w
	}
	if bestCount < 0 {
		bestCount = 0
	}
	return best, bestCount, nil
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
