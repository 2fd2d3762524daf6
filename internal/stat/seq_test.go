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
