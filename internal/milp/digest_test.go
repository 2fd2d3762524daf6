package milp_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/lp"
	"repro/internal/milp"
)

// solveDigests pins the SHA-256 of every SolveArena result in each corpus
// part, in solve order: status, objective bits, the X bits, the node count
// and the arena's hot/warm/cold/fallback deltas for the call. Simplex
// speed-ups must be exact down to the search path, so any change in a pivot
// sequence that moves an objective bit, an argmin or a node count moves a
// digest. Recorded on amd64, where the compiler never fuses multiply-adds,
// before the simplex gained its compact artificial block and slack restore
// rule. The per-sample ILPs have left the flow (insertion repairs
// components by support enumeration and projection), so the s9234 parts
// drive the flow with every component forced through the two-ILP route
// (insertion.NewSampleBenchMILP): they hash the same solves as before the
// ILPs left, and these digests are the ones recorded then.
var solveDigests = map[string]string{
	"integer":          "47d8d9a2a1c85122212e15f577d29f4b75d9c53a256ef5a7f6b6dc77f63a23a0",
	"cover":            "7b4b6d5b933963463d531bec7f322a7f155ee24a9444ad0e06e26caa01986841",
	"mixed":            "f0d2e0573bea449248d91df8b3492d1e01d6ac2538a57f897a65b70fb5c3f96b",
	"mincount":         "8dddd5f5faee0a5a4f9ed47b90cd7990853725cecf473feba1528b811d1af8da",
	"s9234/muT":        "7abdf01910b2d3219a9e6285d45212818218b5c5bdf1ad56cd9d9ab02ef7a4a3",
	"s9234/muT+sigma":  "95441a9e66c996985bfd313c498da753be51a53275da590235afa7c995eea985",
	"s9234/muT+2sigma": "f07c03ed955ffa49b23da769d665efd4cf37d965105adefbf82df55dc1ec151a",
}

// solveDigester hashes SolveArena results through the test hook.
type solveDigester struct {
	h      hash.Hash
	buf    []byte
	solves int
	prev   map[*milp.Arena]milp.SolveStats
}

func (d *solveDigester) observe(a *milp.Arena, s milp.Solution, err error) {
	put := func(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
	d.buf = d.buf[:0]
	put(uint64(s.Status))
	put(math.Float64bits(s.Obj))
	put(uint64(len(s.X)))
	for _, x := range s.X {
		put(math.Float64bits(x))
	}
	put(uint64(s.Nodes))
	st, p := a.Stats, d.prev[a]
	d.prev[a] = st
	put(uint64(st.Hot - p.Hot))
	put(uint64(st.Warm - p.Warm))
	put(uint64(st.Cold - p.Cold))
	put(uint64(st.Fallbacks - p.Fallbacks))
	if err != nil {
		d.buf = append(d.buf, err.Error()...)
	}
	d.buf = append(d.buf, 0)
	d.h.Write(d.buf)
	d.solves++
}

// minCountShape is BenchmarkMILPMinCount's per-sample min-buffer ILP.
func minCountShape() *milp.Problem {
	p := milp.NewProblem()
	const n = 8
	var xs, cs [n]int
	for v := 0; v < n; v++ {
		xs[v] = p.AddVar(milp.Continuous, -50, 50, 0, "x")
		cs[v] = p.AddVar(milp.Binary, 0, 1, 1, "c")
		p.Indicator(xs[v], cs[v], 50)
	}
	for v := 0; v < n-1; v++ {
		p.AddRow(lp.LE, float64(-10+v), lp.T(xs[v], 1), lp.T(xs[v+1], -1))
	}
	return p
}

// TestSolveDigests pins the solver's exact output: the seeded random
// problems of the milp tests, the min-count benchmark shape, and every
// per-sample ILP that insertion.NewSampleBenchMILP (step-1 pass, step-2
// derivation) and SampleBench.Solve (step 1 + step 2) solve on s9234 at the
// three Table-I targets.
func TestSolveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded with amd64 floating-point rounding")
	}
	d := &solveDigester{prev: map[*milp.Arena]milp.SolveStats{}}
	milp.SetTestHookSolved(d.observe)
	defer milp.SetTestHookSolved(nil)

	got := map[string]string{}
	part := func(name string, run func()) {
		d.h, d.solves = sha256.New(), 0
		run()
		got[name] = hex.EncodeToString(d.h.Sum(nil))
		t.Logf("%s: %d solves", name, d.solves)
	}
	solveBoth := func(p *milp.Problem, a *milp.Arena) {
		p.SolveArena(a, milp.Options{})
		p.SolveArena(a, milp.Options{NoWarm: true})
	}
	part("integer", func() {
		var a milp.Arena
		for seed := uint64(0); seed < 300; seed++ {
			solveBoth(milp.RandomIntegerMILP(rand.New(rand.NewPCG(seed, 71))), &a)
		}
	})
	part("cover", func() {
		var a milp.Arena
		for seed := uint64(0); seed < 300; seed++ {
			solveBoth(milp.RandomCoverMILP(rand.New(rand.NewPCG(seed, 83))), &a)
		}
	})
	part("mixed", func() {
		var a milp.Arena
		for seed := uint64(0); seed < 300; seed++ {
			solveBoth(milp.RandomMixedMILP(seed), &a)
		}
	})
	part("mincount", func() {
		var a milp.Arena
		p := minCountShape()
		p.Solve(milp.Options{})
		solveBoth(p, &a)
		p.SolveArena(&a, milp.Options{}) // warm pools
	})

	if !testing.Short() {
		b, err := expt.PreparePreset("s9234", expt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range expt.Targets {
			part("s9234/"+target.String(), func() {
				for _, seed := range []uint64{0xF00D, 101, 202} {
					// One worker keeps the pass's solve order fixed.
					sb, err := insertion.NewSampleBenchMILP(b.Graph, insertion.Config{
						T: b.PeriodFor(target), Samples: 400, Seed: seed, Workers: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 3; i++ {
						sb.Solve()
					}
				}
			})
		}
	}

	for name, want := range solveDigests {
		if g, ok := got[name]; ok && g != want {
			t.Errorf("%s: solve digest %s, want %s", name, g, want)
		}
	}
}
