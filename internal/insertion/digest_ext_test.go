package insertion_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/milp"
)

// oracleSolveDigests pins the SHA-256 of every branch-and-bound result the
// two-ILP oracle computes on s9234 at each Table-I target, in solve order,
// in the byte layout of milp's solve digests (status, objective bits, the
// X bits, the node count). The values were recorded by milp's
// TestSolveDigests when these ILPs were still the flow's own: with every
// component forced through them, they also pin the flow's passes that
// produced the components.
var oracleSolveDigests = map[string]string{
	"s9234/muT":        "3e261251b472b5cb8ac79151d99bf84439c28e8b96dd86f05976cf8d2619fd3f",
	"s9234/muT+sigma":  "30f62ea1f8a87199e7897f2ae4d910d806509fd656f046797466f09d6b9eb571",
	"s9234/muT+2sigma": "f74269fa45a3effd578bc99486b6ebd3c9763caa7adf10465d931329dcd1a5ee",
}

// solveDigester hashes branch-and-bound results at their call sites.
type solveDigester struct {
	h      hash.Hash
	buf    []byte
	solves int
}

func (d *solveDigester) observe(s milp.Solution, err error) {
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

// TestOracleSolveDigests hashes every ILP that NewSampleBenchMILP (step-1
// pass, step-2 derivation) and SampleBench.Solve (step 1 + step 2) solve
// through the oracle on s9234 at the three Table-I targets.
func TestOracleSolveDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares s9234")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded with amd64 floating-point rounding")
	}
	b, err := expt.PreparePreset("s9234", expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range expt.Targets {
		d := &solveDigester{h: sha256.New()}
		for _, seed := range []uint64{0xF00D, 101, 202} {
			// One worker keeps the pass's solve order fixed.
			sb, err := insertion.NewSampleBenchMILP(b.Graph, insertion.Config{
				T: b.PeriodFor(target), Samples: 400, Seed: seed, Workers: 1,
			}, d.observe)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				sb.Solve()
			}
		}
		name := "s9234/" + target.String()
		t.Logf("%s: %d solves", name, d.solves)
		if got := hex.EncodeToString(d.h.Sum(nil)); got != oracleSolveDigests[name] {
			t.Errorf("%s: solve digest %s, want %s", name, got, oracleSolveDigests[name])
		}
	}
}
