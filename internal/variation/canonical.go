// Package variation implements the canonical first-order delay model of
// Visweswariah et al. (DAC 2004, the paper's reference [3]):
//
//	d = a0 + Σᵢ aᵢ·ΔGᵢ + aᵣ·ΔR
//
// where the ΔGᵢ are shared (globally correlated) standard-normal sources —
// here one per process parameter (L, Tox, Vth), optionally refined by
// spatial region — and ΔR is a standard-normal source independent per form.
// The package provides the arithmetic the SSTA engine needs (add, scale,
// max/min via Clark's approximation) and sampling support for Monte Carlo.
package variation

import (
	"fmt"
	"math"

	"repro/internal/stat"
)

// Canonical is one first-order form. Sens has one entry per global source;
// all Canonical values participating in one analysis must share the same
// source dimensionality (enforced by Space).
type Canonical struct {
	Mean float64
	Sens []float64
	Rand float64 // coefficient of the independent source (≥ 0)
}

// Space defines the global variation sources of an analysis: the number of
// process parameters times the number of spatial regions.
type Space struct {
	Params  int // number of process parameters (3 in the paper)
	Regions int // spatial correlation regions (1 = fully correlated die)
}

// DefaultSpace is the paper's setting: three parameters, one region.
func DefaultSpace() Space { return Space{Params: 3, Regions: 1} }

// Dim returns the number of global sources.
func (s Space) Dim() int { return s.Params * s.Regions }

// SourceIndex returns the global-source index of parameter p in region r.
func (s Space) SourceIndex(p, r int) int {
	if p < 0 || p >= s.Params || r < 0 || r >= s.Regions {
		panic(fmt.Sprintf("variation: source (%d,%d) outside space %+v", p, r, s))
	}
	return r*s.Params + p
}

// Zero returns the zero form in an n-source space.
func Zero(n int) Canonical {
	return Canonical{Sens: make([]float64, n)}
}

// Const returns a deterministic form with the given mean.
func Const(n int, mean float64) Canonical {
	c := Zero(n)
	c.Mean = mean
	return c
}

// Clone returns a deep copy.
func (c Canonical) Clone() Canonical {
	return Canonical{Mean: c.Mean, Sens: append([]float64(nil), c.Sens...), Rand: c.Rand}
}

// Variance returns the total variance of the form.
func (c Canonical) Variance() float64 {
	v := c.Rand * c.Rand
	for _, a := range c.Sens {
		v += a * a
	}
	return v
}

// Std returns the standard deviation.
func (c Canonical) Std() float64 { return math.Sqrt(c.Variance()) }

// Covariance returns Cov(c, d), which is the dot product of the shared
// sensitivities (the independent parts never correlate).
func (c Canonical) Covariance(d Canonical) float64 {
	if len(c.Sens) != len(d.Sens) {
		panic("variation: covariance across different spaces")
	}
	s := 0.0
	for i := range c.Sens {
		s += c.Sens[i] * d.Sens[i]
	}
	return s
}

// Add returns c + d. Independent parts add in quadrature (RSS) because the
// two ΔR sources are distinct and a sum of independent normals is normal.
func (c Canonical) Add(d Canonical) Canonical {
	out := Zero(len(c.Sens))
	AddInto(&out, c, d)
	return out
}

// CopyInto copies src into dst without allocating. dst.Sens must already
// have the space's length (it is overwritten element-wise, preserving the
// backing array — the point of the In-to family: propagation engines keep
// all Sens vectors in one preallocated slab).
func CopyInto(dst *Canonical, src Canonical) {
	if len(dst.Sens) != len(src.Sens) {
		panic("variation: CopyInto across different spaces")
	}
	dst.Mean = src.Mean
	copy(dst.Sens, src.Sens)
	dst.Rand = src.Rand
}

// AddInto sets *dst = a + b without allocating; bit-identical to Add.
// dst may alias a or b.
func AddInto(dst *Canonical, a, b Canonical) {
	if len(a.Sens) != len(b.Sens) {
		panic("variation: add across different spaces")
	}
	if len(dst.Sens) != len(a.Sens) {
		panic("variation: AddInto destination has wrong dimension")
	}
	dst.Mean = a.Mean + b.Mean
	for i := range dst.Sens {
		dst.Sens[i] = a.Sens[i] + b.Sens[i]
	}
	dst.Rand = math.Hypot(a.Rand, b.Rand)
}

// AddConst returns c + k.
func (c Canonical) AddConst(k float64) Canonical {
	out := c.Clone()
	out.Mean += k
	return out
}

// Scale returns k·c. Negative k flips sensitivities; Rand stays ≥ 0.
func (c Canonical) Scale(k float64) Canonical {
	out := Zero(len(c.Sens))
	out.Mean = k * c.Mean
	for i := range out.Sens {
		out.Sens[i] = k * c.Sens[i]
	}
	out.Rand = math.Abs(k) * c.Rand
	return out
}

// Neg returns −c.
func (c Canonical) Neg() Canonical { return c.Scale(-1) }

// degenEps is the relative degeneracy threshold of the canonical max: the
// pair is treated as perfectly correlated when Var(c−d) is below
// degenEps·(Var(c)+Var(d)). θ² is computed as va+vb−2cov, which cancels
// catastrophically for near-perfectly-correlated forms — the absolute
// 1e-18 threshold this replaces let ps-scale forms through with a θ² that
// was pure rounding noise, producing a garbage α = Δµ/θ. Cancellation
// error is bounded by a few ulps of va+vb, so a relative test is the
// scale-independent guard.
const degenEps = 1e-12

// Max returns a canonical approximation of max(c, d) using Clark's
// moment-matching: the result's mean and variance match the exact first two
// moments of the max of the bivariate normal pair, and the sensitivities are
// the probability-weighted blend Tc·aᵢ + (1−Tc)·bᵢ, with the residual
// variance assigned to the independent term. This is the standard canonical
// max of block-based SSTA [3].
func (c Canonical) Max(d Canonical) Canonical {
	out := Zero(len(c.Sens))
	MaxInto(&out, c, d)
	return out
}

// MaxInto sets *dst = max(a, b) (Clark) without allocating; bit-identical
// to Max. dst may alias a or b.
func MaxInto(dst *Canonical, a, b Canonical) {
	clarkInto(dst, a, b, 1)
}

// Min returns the canonical min via −max(−c, −d).
func (c Canonical) Min(d Canonical) Canonical {
	out := Zero(len(c.Sens))
	MinInto(&out, c, d)
	return out
}

// MinInto sets *dst = min(a, b) without allocating; bit-identical to Min
// (which is defined as −max(−a, −b)). dst may alias a or b.
func MinInto(dst *Canonical, a, b Canonical) {
	clarkInto(dst, a, b, -1)
}

// clarkInto is the shared Clark max/min kernel: with s = +1 it computes
// max(a, b); with s = −1 it computes −max(−a, −b) = min(a, b), executing
// exactly the floating-point operations the negate–max–negate composition
// would (negation is exact, so reading inputs through s and unnegating the
// outputs reproduces the historical Min bit-for-bit).
func clarkInto(dst *Canonical, a, b Canonical, s float64) {
	if len(a.Sens) != len(b.Sens) {
		panic("variation: max across different spaces")
	}
	if len(dst.Sens) != len(a.Sens) {
		panic("variation: destination has wrong dimension")
	}
	va, vb := a.Variance(), b.Variance()
	cov := a.Covariance(b)
	// θ² = Var(a−b) ≥ 0 up to rounding (negation-invariant).
	theta2 := va + vb - 2*cov
	if theta2 <= degenEps*(va+vb) {
		// The difference is (numerically) deterministic: pick the form the
		// max in s-space would pick.
		if s*a.Mean >= s*b.Mean {
			CopyInto(dst, a)
		} else {
			CopyInto(dst, b)
		}
		return
	}
	am, bm := s*a.Mean, s*b.Mean
	theta := math.Sqrt(theta2)
	alpha := (am - bm) / theta
	t := stat.NormalCDF(alpha) // P(s·a > s·b)
	phi := normPDF(alpha)
	// Exact first two moments of max (Clark 1961), in s-space.
	m1 := am*t + bm*(1-t) + theta*phi
	m2 := (va+am*am)*t + (vb+bm*bm)*(1-t) + (am+bm)*theta*phi
	variance := m2 - m1*m1
	if variance < 0 {
		variance = 0
	}
	dst.Mean = s * m1
	for i := range dst.Sens {
		dst.Sens[i] = t*(s*a.Sens[i]) + (1-t)*(s*b.Sens[i])
	}
	// Residual variance to the independent source (computed on the s-space
	// blend; squares are negation-invariant).
	explained := 0.0
	for _, v := range dst.Sens {
		explained += v * v
	}
	resid := variance - explained
	if resid < 0 {
		// Clamp and renormalize sensitivities so total variance matches.
		if explained > 0 {
			k := math.Sqrt(variance / explained)
			for i := range dst.Sens {
				dst.Sens[i] *= k
			}
		}
		resid = 0
	}
	dst.Rand = math.Sqrt(resid)
	// Undo the s-space view of the blend (s = ±1, so s·x is exact).
	if s < 0 {
		for i := range dst.Sens {
			dst.Sens[i] = -dst.Sens[i]
		}
	}
}

func normPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// Eval evaluates the form at a sampled global-source vector g and an
// independent deviate r (both standard normal).
func (c Canonical) Eval(g []float64, r float64) float64 {
	if len(g) != len(c.Sens) {
		panic("variation: eval with wrong source dimension")
	}
	v := c.Mean
	for i, a := range c.Sens {
		v += a * g[i]
	}
	return v + c.Rand*r
}

// Sparse is a precomputed evaluation form of a Canonical holding only the
// non-zero sensitivities. Local pair delays on large circuits depend on a
// handful of the global sources (often none beyond the die-wide parameters),
// so evaluating through the sparse form skips the zero entries that dominate
// a dense Eval. Sparse values are immutable snapshots: they do not track
// later mutation of the originating Canonical.
type Sparse struct {
	Mean float64
	Rand float64
	Idx  []int32
	Coef []float64
}

// Sparsify extracts the sparse evaluation form of c.
func (c Canonical) Sparsify() Sparse {
	s := Sparse{Mean: c.Mean, Rand: c.Rand}
	for i, a := range c.Sens {
		if a != 0 {
			s.Idx = append(s.Idx, int32(i))
			s.Coef = append(s.Coef, a)
		}
	}
	return s
}

// Eval evaluates the sparse form at a sampled global-source vector g and an
// independent deviate r. It returns exactly the same value as Eval on the
// originating Canonical (skipping a zero sensitivity never changes an IEEE
// sum). g must cover the originating space; only the non-zero indices are
// read.
func (s *Sparse) Eval(g []float64, r float64) float64 {
	v := s.Mean
	for k, i := range s.Idx {
		v += s.Coef[k] * g[i]
	}
	return v + s.Rand*r
}
