package yield

import "testing"

// TestCheckWaveRejectsMalformed: a worker partial must be well formed
// beyond its FirstZero total — every bin non-negative and, on full waves,
// the tuned histogram covering the same chips — or it would merge into
// wrong tuned yields. On a stratified wave each stratum's histogram must
// cover exactly that stratum's chips of the range, which for a range not
// aligned to the strata differ by stratum; a pooled-length partial, or one
// that moves a chip between strata, is rejected.
func TestCheckWaveRejectsMalformed(t *testing.T) {
	sweeps := []*SweepEvaluator{{Ts: []float64{100, 110}}}
	for _, tc := range []struct {
		name           string
		lo, hi, strata int
		zeroOnly       bool
		zero, tune     []int
		ok             bool
	}{
		{"valid", 0, 4, 0, false, []int{1, 1, 2}, []int{2, 1, 1}, true},
		{"tuned sum off", 0, 4, 0, false, []int{1, 1, 2}, []int{0, 0, 9}, false},
		{"negative bins", 0, 4, 0, false, []int{5, -1, 0}, []int{-3, 7, 0}, false},
		// Chips [5, 12) over 4 strata: k mod 4 = 1,2,3,0,1,2,3, so 1,2,2,2 per stratum.
		{"stratified", 5, 12, 4, false, []int{1, 0, 0, 0, 2, 0, 0, 1, 1, 1, 1, 0}, []int{1, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 2}, true},
		{"stratified zero-only", 5, 12, 4, true, []int{0, 0, 1, 2, 0, 0, 0, 2, 0, 1, 1, 0}, nil, true},
		{"pooled length", 5, 12, 4, false, []int{3, 2, 2}, []int{4, 2, 1}, false},
		{"pooled length zero-only", 5, 12, 4, true, []int{3, 2, 2}, nil, false},
		{"chip moved between strata", 5, 12, 4, false, []int{2, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0}, []int{1, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 2}, false},
		{"tuned chip moved between strata", 5, 12, 4, false, []int{1, 0, 0, 0, 2, 0, 0, 1, 1, 1, 1, 0}, []int{0, 0, 0, 2, 1, 0, 2, 0, 0, 0, 0, 2}, false},
	} {
		err := CheckWave(sweeps, []SweepTally{{FirstZero: tc.zero, FirstTuned: tc.tune}}, tc.lo, tc.hi, tc.zeroOnly, tc.strata)
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckWave = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
