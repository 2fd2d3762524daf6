package stat

import "math"

// This file is the confidence-interval machinery of adaptive (sequential)
// yield evaluation: two-sided half-widths on Bernoulli pass counts, pooled
// or stratified, and an α-spending schedule that keeps repeated peeking
// honest.

// Bound selects the confidence-bound family the sequential rule uses on
// Bernoulli pass counts.
type Bound int

const (
	// BoundWilson is the Wilson score interval — far tighter than
	// Hoeffding near p ≈ 0 or 1, where yield queries live. On stratified
	// draws it takes the stratified variance (StratifiedHalfWidth).
	BoundWilson Bound = iota
	// BoundHoeffding is the distribution-free Hoeffding bound
	// √(ln(2/α)/2n). It needs only independent bounded summands, so it
	// stays exact for the stratified sampler's non-identical draws, where
	// the Wilson interval rests on a normal approximation; it credits no
	// strata.
	BoundHoeffding
)

func (b Bound) String() string {
	if b == BoundHoeffding {
		return "hoeffding"
	}
	return "wilson"
}

// HalfWidth returns the two-sided confidence half-width on the pass rate
// pass/n at significance alpha (confidence 1−alpha), such that the
// interval p̂ ± HalfWidth covers the true rate with probability ≥ 1−alpha
// (asymptotically for Wilson, exactly for Hoeffding). n ≤ 0 or alpha ≤ 0
// return the vacuous half-width 1.
func (b Bound) HalfWidth(pass, n int, alpha float64) float64 {
	if b == BoundHoeffding {
		return HoeffdingHalfWidth(n, alpha)
	}
	return WilsonHalfWidth(pass, n, alpha)
}

// WilsonHalfWidth returns the largest one-sided excursion of the Wilson
// score interval from the empirical rate p̂ = pass/n at significance
// alpha: the Wilson interval is not centered on p̂, so reporting p̂ ± h
// with h = max(p̂−lo, hi−p̂) is what preserves its coverage. The interval
// is clamped to [0,1] first (the true rate lives there).
func WilsonHalfWidth(pass, n int, alpha float64) float64 {
	if n <= 0 {
		return 1
	}
	return wilsonAt(float64(pass)/float64(n), float64(n), alpha)
}

// wilsonAt is WilsonHalfWidth at rate p over nn draws, where nn may be a
// fractional effective sample size.
func wilsonAt(p, nn, alpha float64) float64 {
	if nn <= 0 || alpha <= 0 {
		return 1
	}
	if alpha >= 1 {
		return 0
	}
	z := NormalQuantile(1 - alpha/2)
	den := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / den
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / den
	lo, hi := center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return math.Max(p-lo, hi-p)
}

// StratifiedHalfWidth returns the Wilson half-width of a stratified pass
// rate, and the design effect it used. pass[h] counts the passes among the
// nh draws of stratum h, one of L = len(pass) equal-probability strata, so
// the pooled rate p̂ = Σpass/(L·nh) is also the stratified estimate. Its
// variance is v̂/n over n = L·nh draws, with
//
//	v̂ = (1/L)·Σ_h p̃_h(1−p̃_h)·nh/(nh−1),  p̃_h = (pass[h]+½)/(nh+1),
//
// against p̂(1−p̂)/n for plain Monte Carlo: the strata remove the
// between-band part of the variance. The smoothing p̃_h keeps a stratum
// that passed 0 or nh times contributing variance, so a few pure strata
// cannot claim a vanishing interval. The half-width is the Wilson form at
// the effective size n_eff = n/deff, deff = v̂/(p̂(1−p̂)), capped at 1:
// equal-probability strata sampled in proportion never raise the
// variance above plain Monte Carlo's, so a larger v̂ is the smoothing's
// doing (it dominates near p̂ = 0 or 1 while strata are small), and the
// pooled interval, valid for stratified draws too, stands. With one
// stratum, fewer than two draws per stratum (no within-stratum variance),
// or p̂ at 0 or 1 (no variance estimate to shrink), it is WilsonHalfWidth
// over the pooled counts, at deff 1. Each pass[h] must lie in [0, nh].
func StratifiedHalfWidth(pass []int, nh int, alpha float64) (hw, deff float64) {
	L := len(pass)
	x := 0
	for _, c := range pass {
		x += c
	}
	n := L * nh
	if L <= 1 || nh < 2 || x == 0 || x == n {
		return WilsonHalfWidth(x, n, alpha), 1
	}
	p := float64(x) / float64(n)
	v := 0.0
	for _, c := range pass {
		q := (float64(c) + 0.5) / float64(nh+1)
		v += q * (1 - q)
	}
	v *= float64(nh) / float64(nh-1) / float64(L)
	deff = min(v/(p*(1-p)), 1)
	return wilsonAt(p, float64(n)/deff, alpha), deff
}

// HoeffdingHalfWidth returns the distribution-free Hoeffding half-width
// √(ln(2/alpha)/2n), capped at the vacuous 1.
func HoeffdingHalfWidth(n int, alpha float64) float64 {
	if n <= 0 || alpha <= 0 {
		return 1
	}
	if alpha >= 2 {
		return 0
	}
	hw := math.Sqrt(math.Log(2/alpha) / (2 * float64(n)))
	return math.Min(hw, 1)
}

// SeqSchedule is the peeking correction of the sequential stopping rule.
// Checking a fixed-level confidence interval after every wave and stopping
// the first time it is narrow enough is optional stopping: the repeated
// looks inflate the error probability well past α. The schedule instead
// spends AlphaAt(w) = α/(w(w+1)) at the w-th check; the spends sum to α
// over all w, so by a union bound every interval ever computed covers
// simultaneously with probability ≥ 1−α — which makes any data-dependent
// rule for when to stop (or what kind of wave to run next) coverage-safe.
// The price is a z-score that grows like √log w — a few extra percent of
// samples per doubling, against the 10–50× saved by stopping early.
type SeqSchedule struct {
	// Alpha is the total two-sided significance budget (1 − confidence).
	Alpha float64
}

// AlphaAt returns the significance spent at check w (1-based).
func (s SeqSchedule) AlphaAt(w int) float64 {
	if w < 1 {
		w = 1
	}
	return s.Alpha / (float64(w) * float64(w+1))
}
