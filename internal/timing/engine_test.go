package timing_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/mc"
	"repro/internal/ssta"
	"repro/internal/stat"
	"repro/internal/timing"
	"repro/internal/variation"
)

// referenceChip realizes chip k of the (seed, strata) universe the way the
// engine's contract defines it, one math/rand/v2 draw at a time: the
// stream is rand.NewPCG(seed, k·0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03);
// under stratification its first draw is the uniform position u within
// stratum k mod L and gvec[0] = Φ⁻¹((k mod L + u)/L); every other deviate
// is a NormFloat64 draw, in the order globals, pairs, FFs.
func referenceChip(g *timing.Graph, seed uint64, strata, k int) *timing.Chip {
	rng := rand.New(rand.NewPCG(seed, uint64(k)*0x9E3779B97F4A7C15+0xD1B54A32D192ED03))
	ch := g.NewChip()
	if strata <= 1 {
		g.RealizeInto(rng, ch)
		return ch
	}
	gv := make([]float64, g.Dim())
	p := (float64(k%strata) + rng.Float64()) / float64(strata)
	if p <= 0 {
		p = 1e-15
	}
	gv[0] = stat.NormalQuantile(p)
	for i := 1; i < len(gv); i++ {
		gv[i] = rng.NormFloat64()
	}
	g.RealizeWithGlobals(rng, gv, ch)
	return ch
}

// diffChip describes the first bit-level difference between a and b, or
// returns "" when all four realized vectors are identical.
func diffChip(a, b *timing.Chip) string {
	for _, v := range []struct {
		name string
		a, b []float64
	}{{"DMax", a.DMax, b.DMax}, {"DMin", a.DMin, b.DMin}, {"Setup", a.Setup, b.Setup}, {"Hold", a.Hold, b.Hold}} {
		for i := range v.a {
			if math.Float64bits(v.a[i]) != math.Float64bits(v.b[i]) {
				return v.name + " differs"
			}
		}
	}
	return ""
}

// TestEngineMatchesReference pins the engine's batched realization — one
// Stream fill per chip, then the kernel — to the per-draw math/rand/v2
// reference, for each kernel (packed s9234, sparse two-region, dense
// hand-assembled), on the plain and the stratified universe, through both
// Engine.Chip and a multi-worker pass.
func TestEngineMatchesReference(t *testing.T) {
	s9234 := func(t *testing.T, regions int) *timing.Graph {
		p, err := gen.PresetByName("s9234")
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := variation.NewModel(cells.Default())
		if regions > 1 {
			m.Space = variation.Space{Params: m.Space.Params, Regions: regions}
			m.RegionOf = func(node int) int { return node % regions }
		}
		a, err := ssta.New(c, m)
		if err != nil {
			t.Fatal(err)
		}
		g := timing.Build(a, nil)
		return g.WithSkew(g.HoldSafeSkews(timing.SkewSigma(g.Pairs, 0.03), 9))
	}
	packed := s9234(t, 1)
	for _, tc := range []struct {
		kernel string
		g      *timing.Graph
	}{
		{"packed", packed},
		{"sparse", s9234(t, 2)},
		{"dense", timing.DenseOf(packed)},
	} {
		if got := timing.KernelOf(tc.g); got != tc.kernel {
			t.Fatalf("graph selected the %s kernel, want %s", got, tc.kernel)
		}
		for _, strata := range []int{0, 8} {
			e := mc.New(tc.g, 4242)
			e.Stratify = strata
			e.Workers = 2
			const n = 40
			seen := make([]bool, n)
			e.ForEachBatch(n, func(k int, ch *timing.Chip) {
				seen[k] = true
				if d := diffChip(ch, referenceChip(tc.g, e.Seed, strata, k)); d != "" {
					t.Errorf("%s kernel, Stratify=%d: pass chip %d: %s from the reference", tc.kernel, strata, k, d)
				}
			})
			for k := 0; k < n; k++ {
				if !seen[k] {
					t.Fatalf("%s kernel, Stratify=%d: chip %d never handed out", tc.kernel, strata, k)
				}
				if d := diffChip(e.Chip(k), referenceChip(tc.g, e.Seed, strata, k)); d != "" {
					t.Errorf("%s kernel, Stratify=%d: Chip(%d): %s from the reference", tc.kernel, strata, k, d)
				}
			}
		}
	}
}
