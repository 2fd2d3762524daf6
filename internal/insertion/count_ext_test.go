package insertion_test

import (
	"testing"

	"repro/internal/expt"
	"repro/internal/insertion"
)

// TestComponentCountMatchesMILP is the differential oracle of the
// combinatorial count: on every component of the step-1 and fixed-window
// passes of s9234 and s13207 at the three Table-I targets, solveComponent
// (support enumeration, then the concentration ILP) and the two-ILP
// solveComponentMILP agree on feasibility, count and every tuning bit, and
// no solvable component is left undecided.
func TestComponentCountMatchesMILP(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares two presets")
	}
	for _, name := range []string{"s9234", "s13207"} {
		b, err := expt.PreparePreset(name, expt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range expt.Targets {
			for _, seed := range []uint64{0xF00D, 101, 202} {
				cc, err := insertion.CheckComponentCounts(b.Graph, insertion.Config{
					T: b.PeriodFor(target), Samples: 150, Seed: seed, Workers: 1,
				})
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", name, target, seed, err)
				}
				if cc.Undecided != 0 {
					t.Errorf("%s/%s seed %d: %d of %d components undecided", name, target, seed, cc.Undecided, cc.Components)
				}
				t.Logf("%s/%s seed %d: %d components, %d infeasible", name, target, seed, cc.Components, cc.Infeasible)
			}
		}
	}
}
