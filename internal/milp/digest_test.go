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
// part, in solve order: status, objective bits, the X bits and the node
// count. Simplex speed-ups must be exact down to the search path, so any
// change in a pivot sequence that moves an objective bit, an argmin or a
// node count moves a digest. Recorded on amd64, where the compiler never
// fuses multiply-adds, from the cold search (every node a two-phase SolveWS)
// of the solver that still carried warm restarts, so they also show that
// removing them changed no bit of that search. The per-sample ILPs have left
// the flow (insertion repairs components by support enumeration and
// projection), so the s9234 parts drive the flow with every component
// forced through the two-ILP route (insertion.NewSampleBenchMILP).
var solveDigests = map[string]string{
	"integer":          "3c9ad9fe391fa385fc4087f710b9e381688e8f6a5879f86edd92d5c6b2c08f12",
	"cover":            "7edd1d1e6bac9647a7b81a7d1b7f41275d74351b429421b73ede4174a149e922",
	"mixed":            "28cf20b6573e573b72d77d617604c1c729aacc53949da8233083af449b7b3a58",
	"mincount":         "155e9704a1936023c3ee15f05f9f11f873a79671c81f7b82e00cb828fdc819d4",
	"s9234/muT":        "3e261251b472b5cb8ac79151d99bf84439c28e8b96dd86f05976cf8d2619fd3f",
	"s9234/muT+sigma":  "30f62ea1f8a87199e7897f2ae4d910d806509fd656f046797466f09d6b9eb571",
	"s9234/muT+2sigma": "f74269fa45a3effd578bc99486b6ebd3c9763caa7adf10465d931329dcd1a5ee",
}

// solveDigester hashes SolveArena results through the test hook.
type solveDigester struct {
	h      hash.Hash
	buf    []byte
	solves int
}

func (d *solveDigester) observe(_ *milp.Arena, s milp.Solution, err error) {
	put := func(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
	d.buf = d.buf[:0]
	put(uint64(s.Status))
	put(math.Float64bits(s.Obj))
	put(uint64(len(s.X)))
	for _, x := range s.X {
		put(math.Float64bits(x))
	}
	put(uint64(s.Nodes))
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
	d := &solveDigester{}
	milp.SetTestHookSolved(d.observe)
	defer milp.SetTestHookSolved(nil)

	got := map[string]string{}
	part := func(name string, run func()) {
		d.h, d.solves = sha256.New(), 0
		run()
		got[name] = hex.EncodeToString(d.h.Sum(nil))
		t.Logf("%s: %d solves", name, d.solves)
	}
	part("integer", func() {
		var a milp.Arena
		for seed := uint64(0); seed < 300; seed++ {
			milp.RandomIntegerMILP(rand.New(rand.NewPCG(seed, 71))).SolveArena(&a, milp.Options{})
		}
	})
	part("cover", func() {
		var a milp.Arena
		for seed := uint64(0); seed < 300; seed++ {
			milp.RandomCoverMILP(rand.New(rand.NewPCG(seed, 83))).SolveArena(&a, milp.Options{})
		}
	})
	part("mixed", func() {
		var a milp.Arena
		for seed := uint64(0); seed < 300; seed++ {
			milp.RandomMixedMILP(seed).SolveArena(&a, milp.Options{})
		}
	})
	part("mincount", func() {
		var a milp.Arena
		p := minCountShape()
		p.Solve(milp.Options{})
		p.SolveArena(&a, milp.Options{})
		p.SolveArena(&a, milp.Options{}) // again on the reused arena
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
