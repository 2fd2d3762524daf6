package stat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestWilsonHalfWidthCoversWilsonCI pins the half-width to the Yield
// Wilson interval it is derived from: p̂ ± WilsonHalfWidth must contain
// the (clamped) WilsonCI at the matching level.
func TestWilsonHalfWidthCoversWilsonCI(t *testing.T) {
	for _, tc := range []struct{ pass, n int }{
		{50, 100}, {0, 40}, {40, 40}, {399, 400}, {1, 1000},
	} {
		const level = 0.95
		lo, hi := (Yield{Pass: tc.pass, Total: tc.n}).WilsonCI(level)
		hw := WilsonHalfWidth(tc.pass, tc.n, 1-level)
		p := float64(tc.pass) / float64(tc.n)
		if p-hw > lo+1e-12 || p+hw < hi-1e-12 {
			t.Errorf("pass=%d n=%d: p̂±hw [%v,%v] does not cover Wilson CI [%v,%v]",
				tc.pass, tc.n, p-hw, p+hw, lo, hi)
		}
		if hw <= 0 || hw > 1 {
			t.Errorf("pass=%d n=%d: half-width %v outside (0,1]", tc.pass, tc.n, hw)
		}
	}
}

func TestHoeffdingHalfWidth(t *testing.T) {
	// Closed form at easy numbers: n=200, alpha=0.05 → sqrt(ln40/400).
	want := math.Sqrt(math.Log(40) / 400)
	if got := HoeffdingHalfWidth(200, 0.05); math.Abs(got-want) > 1e-12 {
		t.Errorf("HoeffdingHalfWidth(200, 0.05) = %v, want %v", got, want)
	}
	if got := HoeffdingHalfWidth(0, 0.05); got != 1 {
		t.Errorf("n=0 should be vacuous, got %v", got)
	}
	if got := HoeffdingHalfWidth(2, 1e-30); got != 1 {
		t.Errorf("tiny n at tiny alpha should cap at 1, got %v", got)
	}
}

// TestSeqScheduleSpendsAlpha checks the α-spending series telescopes to
// the full budget: Σ 1/(w(w+1)) = 1.
func TestSeqScheduleSpendsAlpha(t *testing.T) {
	s := SeqSchedule{Alpha: 0.05}
	sum := 0.0
	for w := 1; w <= 1_000_000; w++ {
		sum += s.AlphaAt(w)
	}
	if math.Abs(sum-0.05) > 1e-6 {
		t.Errorf("spending sums to %v, want ~0.05", sum)
	}
	if s.AlphaAt(1) != 0.025 || s.AlphaAt(2) != 0.05/6 {
		t.Errorf("unexpected early spends: %v, %v", s.AlphaAt(1), s.AlphaAt(2))
	}
}

// TestSequentialCoverage is the statistical acceptance test of the
// stopping rule: over seeded binomial trials, run geometric waves, check
// the peeking-corrected interval after each wave, stop the first time it
// is narrower than eps — the empirical rate of "the final interval
// contains the true p" must be at least the nominal confidence. The rule
// is conservative by construction (union bound), so nominal coverage
// should hold with margin even at 2000 trials.
func TestSequentialCoverage(t *testing.T) {
	const (
		conf   = 0.90
		trials = 2000
	)
	cases := []struct {
		name  string
		p     float64
		eps   float64
		bound Bound
		seed  uint64
	}{
		{"wilson-mid", 0.5, 0.05, BoundWilson, 101},
		{"wilson-high", 0.95, 0.02, BoundWilson, 102},
		{"wilson-extreme", 0.995, 0.01, BoundWilson, 103},
		{"hoeffding-mid", 0.7, 0.05, BoundHoeffding, 104},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(tc.seed, 0xC0FFEE))
			sched := SeqSchedule{Alpha: 1 - conf}
			covered, sumStop := 0, 0
			for trial := 0; trial < trials; trial++ {
				n, pass := 0, 0
				for w, size := 1, 64; ; w, size = w+1, 2*size {
					for i := 0; i < size; i++ {
						if rng.Float64() < tc.p {
							pass++
						}
					}
					n += size
					hw := tc.bound.HalfWidth(pass, n, sched.AlphaAt(w))
					if hw <= tc.eps {
						est := float64(pass) / float64(n)
						if math.Abs(est-tc.p) <= hw {
							covered++
						}
						sumStop += n
						break
					}
					if n > 1<<22 {
						t.Fatalf("rule never stopped (p=%v eps=%v)", tc.p, tc.eps)
					}
				}
			}
			coverage := float64(covered) / float64(trials)
			if coverage < conf {
				t.Errorf("empirical coverage %.4f below nominal %.2f (mean stop n=%d)",
					coverage, conf, sumStop/trials)
			}
		})
	}
}

// TestStratifiedSequentialCoverage is TestSequentialCoverage for the
// stratified interval on synthetic stratified Bernoulli draws: L = 16
// equal-probability strata with known pass rates p_h, some of them exactly
// 0 or 1 (bands no chip of which passes, or every chip of which does).
// Each wave draws the same number of samples from every stratum, as the
// adaptive sampler's aligned waves do. The stopped intervals must cover
// the true rate mean(p_h) at least at the nominal confidence, and the
// rule must stop on fewer draws than the pooled Wilson rule on the same
// draws: that is what crediting the strata buys.
func TestStratifiedSequentialCoverage(t *testing.T) {
	const (
		conf   = 0.90
		trials = 2000
		L      = 16
	)
	cases := []struct {
		name string
		ph   [L]float64
		eps  float64
		seed uint64
	}{
		{"mid", [L]float64{0, 0, 0, 0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1, 1, 1, 1, 1, 1}, 0.03, 201},
		{"high", [L]float64{0.3, 0.7, 0.9, 0.97, 0.99, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0.02, 202},
		{"flat", [L]float64{0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7}, 0.04, 203},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := 0.0
			for _, q := range tc.ph {
				p += q / L
			}
			rng := rand.New(rand.NewPCG(tc.seed, 0x57A7))
			sched := SeqSchedule{Alpha: 1 - conf}
			// stop runs one trial under a half-width rule and returns
			// whether the stopped interval covers p, and the draws spent.
			stop := func(hwOf func(pass []int, nh int, alpha float64) float64) (bool, int) {
				pass := make([]int, L)
				nh := 0
				for w, size := 1, 64; ; w, size = w+1, 2*size {
					for h := range pass {
						for i := 0; i < size/L; i++ {
							if rng.Float64() < tc.ph[h] {
								pass[h]++
							}
						}
					}
					nh += size / L
					if hw := hwOf(pass, nh, sched.AlphaAt(w)); hw <= tc.eps {
						x := 0
						for _, c := range pass {
							x += c
						}
						return math.Abs(float64(x)/float64(L*nh)-p) <= hw, L * nh
					}
					if nh > 1<<20 {
						t.Fatalf("rule never stopped (p=%v eps=%v)", p, tc.eps)
					}
				}
			}
			strat := func(pass []int, nh int, alpha float64) float64 {
				hw, _ := StratifiedHalfWidth(pass, nh, alpha)
				return hw
			}
			pooled := func(pass []int, nh int, alpha float64) float64 {
				x := 0
				for _, c := range pass {
					x += c
				}
				return WilsonHalfWidth(x, L*nh, alpha)
			}
			covered, drawsStrat, drawsPooled := 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				ok, n := stop(strat)
				if ok {
					covered++
				}
				drawsStrat += n
				_, n = stop(pooled)
				drawsPooled += n
			}
			coverage := float64(covered) / float64(trials)
			t.Logf("p=%.4f coverage %.4f, mean stop %d draws (pooled Wilson %d)",
				p, coverage, drawsStrat/trials, drawsPooled/trials)
			if coverage < conf {
				t.Errorf("empirical coverage %.4f below nominal %.2f", coverage, conf)
			}
			if tc.name != "flat" && drawsStrat >= drawsPooled {
				t.Errorf("stratified rule spent %d draws, pooled %d: the strata earned nothing",
					drawsStrat/trials, drawsPooled/trials)
			}
		})
	}
}

// TestStratifiedHalfWidthFallbacks pins the cases where the stratified
// interval is the pooled Wilson one: one stratum, p̂ at 0 or 1, strata of
// a single draw, and a variance estimate above plain Monte Carlo's.
func TestStratifiedHalfWidthFallbacks(t *testing.T) {
	for _, tc := range []struct {
		name string
		pass []int
		nh   int
	}{
		{"one stratum", []int{37}, 50},
		{"all fail", []int{0, 0, 0, 0}, 16},
		{"all pass", []int{16, 16, 16, 16}, 16},
		{"single draws", []int{1, 0, 1, 1}, 1},
		{"smoothing dominates", []int{16, 16, 15, 16}, 16},
	} {
		x := 0
		for _, c := range tc.pass {
			x += c
		}
		hw, deff := StratifiedHalfWidth(tc.pass, tc.nh, 0.05)
		if want := WilsonHalfWidth(x, len(tc.pass)*tc.nh, 0.05); hw != want || deff != 1 {
			t.Errorf("%s: (hw, deff) = (%v, %v), want (%v, 1)", tc.name, hw, deff, want)
		}
	}
	// Strata that separate passes from fails shrink the interval.
	hw, deff := StratifiedHalfWidth([]int{0, 0, 16, 16}, 16, 0.05)
	if want := WilsonHalfWidth(32, 64, 0.05); !(hw < want && deff < 1) {
		t.Errorf("separating strata: (hw, deff) = (%v, %v), want hw < %v and deff < 1", hw, deff, want)
	}
}

// FuzzStratifiedHalfWidth: for arbitrary per-stratum counts the half-width
// is finite and in [0, 1], the design effect in (0, 1], and both equal the
// pooled Wilson ones when there is one stratum or p̂ is 0 or 1.
func FuzzStratifiedHalfWidth(f *testing.F) {
	f.Add([]byte{0, 0, 255, 255}, uint16(16), uint16(49))
	f.Add([]byte{255, 255, 255, 254}, uint16(16), uint16(4))
	f.Add([]byte{128}, uint16(300), uint16(99))
	f.Add([]byte{0, 0, 0}, uint16(2), uint16(0))
	f.Add([]byte{}, uint16(5), uint16(500))
	f.Fuzz(func(t *testing.T, counts []byte, nh, a uint16) {
		if len(counts) > 256 {
			counts = counts[:256]
		}
		n := int(nh % 5000)
		alpha := float64(a%999+1) / 1000
		pass := make([]int, len(counts))
		x := 0
		for h, c := range counts {
			pass[h] = int(c) * n / 255
			x += pass[h]
		}
		hw, deff := StratifiedHalfWidth(pass, n, alpha)
		if math.IsNaN(hw) || hw < 0 || hw > 1 {
			t.Fatalf("pass=%v nh=%d alpha=%v: half-width %v outside [0, 1]", pass, n, alpha, hw)
		}
		if math.IsNaN(deff) || deff <= 0 || deff > 1 {
			t.Fatalf("pass=%v nh=%d alpha=%v: design effect %v outside (0, 1]", pass, n, alpha, deff)
		}
		if len(pass) == 1 || x == 0 || x == len(pass)*n {
			if want := WilsonHalfWidth(x, len(pass)*n, alpha); hw != want || deff != 1 {
				t.Fatalf("pass=%v nh=%d alpha=%v: (hw, deff) = (%v, %v), want pooled (%v, 1)", pass, n, alpha, hw, deff, want)
			}
		}
	})
}
