package yield

import "testing"

// TestCheckWaveRejectsMalformed: a worker partial must be well formed
// beyond its FirstZero total — every bin non-negative and, on full waves,
// the tuned histogram covering the same chips — or it would merge into
// wrong tuned yields.
func TestCheckWaveRejectsMalformed(t *testing.T) {
	sweeps := []*SweepEvaluator{{Ts: []float64{100, 110}}}
	for _, tc := range []struct {
		name       string
		zero, tune []int
		ok         bool
	}{
		{"valid", []int{1, 1, 2}, []int{2, 1, 1}, true},
		{"tuned sum off", []int{1, 1, 2}, []int{0, 0, 9}, false},
		{"negative bins", []int{5, -1, 0}, []int{-3, 7, 0}, false},
	} {
		err := CheckWave(sweeps, []SweepTally{{FirstZero: tc.zero, FirstTuned: tc.tune}}, 4, false)
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckWave = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
