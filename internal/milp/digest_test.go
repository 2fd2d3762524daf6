package milp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/lp"
)

// solveDigests pins the SHA-256 of every SolveArena result in each corpus
// part, in solve order: status, objective bits, the X bits and the node
// count. Simplex speed-ups must be exact down to the search path, so any
// change in a pivot sequence that moves an objective bit, an argmin or a
// node count moves a digest. Recorded on amd64, where the compiler never
// fuses multiply-adds, from the cold search (every node a two-phase SolveWS)
// of the solver that still carried warm restarts, so they also show that
// removing them changed no bit of that search. The flow's own ILPs are
// hashed the same way by insertion's TestOracleSolveDigests.
var solveDigests = map[string]string{
	"integer":  "3c9ad9fe391fa385fc4087f710b9e381688e8f6a5879f86edd92d5c6b2c08f12",
	"cover":    "7edd1d1e6bac9647a7b81a7d1b7f41275d74351b429421b73ede4174a149e922",
	"mixed":    "28cf20b6573e573b72d77d617604c1c729aacc53949da8233083af449b7b3a58",
	"mincount": "155e9704a1936023c3ee15f05f9f11f873a79671c81f7b82e00cb828fdc819d4",
}

// solveDigester hashes solve results at their call sites.
type solveDigester struct {
	h      hash.Hash
	buf    []byte
	solves int
}

func (d *solveDigester) observe(s Solution, err error) {
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
func minCountShape() *Problem {
	p := NewProblem()
	const n = 8
	var xs, cs [n]int
	for v := 0; v < n; v++ {
		xs[v] = p.AddVar(Continuous, -50, 50, 0, "x")
		cs[v] = p.AddVar(Binary, 0, 1, 1, "c")
		p.Indicator(xs[v], cs[v], 50)
	}
	for v := 0; v < n-1; v++ {
		p.AddRow(lp.LE, float64(-10+v), lp.T(xs[v], 1), lp.T(xs[v+1], -1))
	}
	return p
}

// TestSolveDigests pins the solver's exact output on the seeded random
// problems of the milp tests and the min-count benchmark shape.
func TestSolveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded with amd64 floating-point rounding")
	}
	d := &solveDigester{}
	got := map[string]string{}
	part := func(name string, run func()) {
		d.h, d.solves = sha256.New(), 0
		run()
		got[name] = hex.EncodeToString(d.h.Sum(nil))
		t.Logf("%s: %d solves", name, d.solves)
	}
	part("integer", func() {
		var a Arena
		for seed := uint64(0); seed < 300; seed++ {
			d.observe(randomIntegerMILP(rand.New(rand.NewPCG(seed, 71))).SolveArena(&a, Options{}))
		}
	})
	part("cover", func() {
		var a Arena
		for seed := uint64(0); seed < 300; seed++ {
			d.observe(randomCoverMILP(rand.New(rand.NewPCG(seed, 83))).SolveArena(&a, Options{}))
		}
	})
	part("mixed", func() {
		var a Arena
		for seed := uint64(0); seed < 300; seed++ {
			d.observe(randomMixedMILP(seed).SolveArena(&a, Options{}))
		}
	})
	part("mincount", func() {
		var a Arena
		p := minCountShape()
		d.observe(p.Solve(Options{}))
		d.observe(p.SolveArena(&a, Options{}))
		d.observe(p.SolveArena(&a, Options{})) // again on the reused arena
	})

	for name, want := range solveDigests {
		if g := got[name]; g != want {
			t.Errorf("%s: solve digest %s, want %s", name, g, want)
		}
	}
}
