package insertion_test

import (
	"testing"

	"repro/internal/expt"
	"repro/internal/insertion"
)

// TestComponentCountMatchesMILP is the differential oracle of the
// combinatorial repair: on every component of the step-1 and fixed-window
// passes of s9234 and s13207 at the three Table-I targets, solveComponent
// (support enumeration, then support projection) and the two-ILP oracle
// agree on feasibility and count, their concentration objectives are equal
// within 1e-9·(1+obj), every tuning solveComponent emits passes an
// independent row check, and no solvable component is a hairline the δ
// band leaves undecided. Tuning bits may differ where supports tie;
// TestPlanEquivalence bounds what that does to the plans.
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
				if cc.Hairline != 0 {
					t.Errorf("%s/%s seed %d: of %d components, %d hairlines the δ band leaves undecided",
						name, target, seed, cc.Components, cc.Hairline)
				}
				if cc.Better != 0 || cc.Inexact != 0 {
					t.Errorf("%s/%s seed %d: objectives not compared as equal on %d components (%d better, %d inexact MILP)",
						name, target, seed, cc.Better+cc.Inexact, cc.Better, cc.Inexact)
				}
				t.Logf("%s/%s seed %d: %d components, %d infeasible, max |Δobj| %.2g",
					name, target, seed, cc.Components, cc.Infeasible, cc.MaxObjDiff)
			}
		}
	}
}
