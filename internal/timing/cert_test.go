package timing

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// checkCert certifies ch and checks the certificate against the scans:
// req bit for bit against RequiredPeriod, holdOK against
// HoldViolationsAtZero, the critical pair's need against req, and every
// verdict ZeroAt or ZeroThreshold decides over the ascending periods Ts
// against FeasibleAtZero. ZeroThreshold's critical pair must fail setup at
// every period below the threshold it returns (the sweep's self-pair
// shortcut rests on that). It returns how many of Ts ZeroAt decided.
func checkCert(t *testing.T, g *Graph, ch *Chip, Ts []float64) (decided int) {
	t.Helper()
	req, holdOK, ok := g.Certify(ch)
	if !ok {
		t.Fatal("a built graph did not certify")
	}
	if want := g.RequiredPeriod(ch); math.Float64bits(req) != math.Float64bits(want) {
		t.Fatalf("certified req %v, RequiredPeriod %v", req, want)
	}
	if want := g.HoldViolationsAtZero(ch) == 0; holdOK != want {
		t.Fatalf("certified holdOK %v, HoldViolationsAtZero says %v", holdOK, want)
	}
	if c := ch.cert.crit; c >= 0 {
		pr := &g.Pairs[c]
		need := ch.DMax[c] + ch.Setup[pr.Capture] + g.Skew[pr.Launch] - g.Skew[pr.Capture]
		if math.Float64bits(need) != math.Float64bits(req) {
			t.Fatalf("critical pair %d needs %v, req %v", c, need, req)
		}
	} else if req != 0 {
		t.Fatalf("no critical pair, yet req %v", req)
	}
	first := len(Ts)
	for i := len(Ts) - 1; i >= 0; i-- {
		want := g.FeasibleAtZero(ch, Ts[i])
		if want {
			first = i
		}
		pass, dec := g.ZeroAt(ch, Ts[i])
		if !dec {
			continue
		}
		decided++
		if pass != want {
			t.Fatalf("T=%v (req %v, holdOK %v): certificate says %v, FeasibleAtZero %v", Ts[i], req, holdOK, pass, want)
		}
	}
	z, crit, ok := g.ZeroThreshold(ch, Ts)
	if !ok {
		return decided
	}
	if z != first {
		t.Fatalf("Ts %v (req %v, holdOK %v): certified threshold %d, FeasibleAtZero threshold %d", Ts, req, holdOK, z, first)
	}
	for i := 0; i < z && crit >= 0; i++ {
		if b := g.SetupBound(ch, crit, Ts[i]); !(b < 0) {
			t.Fatalf("critical pair %d meets setup at Ts[%d]=%v (bound %v) below the threshold %d", crit, i, Ts[i], b, z)
		}
	}
	return decided
}

// TestCertDefersInBand puts the period exactly at req and one ulp either
// side, where the operation orders of RequiredPeriod and SetupBound may
// disagree: the certificate must defer there, and at infinite and NaN
// periods, yet decide periods well away from req. Non-finite delays must
// defer every setup verdict; a hold failure decides "fail" at any period.
func TestCertDefersInBand(t *testing.T) {
	g := buildGraph(t, 14, 70, 31, 0.03)
	rng := rand.New(rand.NewPCG(7, 8))
	ch := g.NewChip()
	for k := 0; k < 30; k++ {
		g.RealizeInto(rng, ch)
		req := g.RequiredPeriod(ch)
		band := []float64{math.Nextafter(req, math.Inf(-1)), req, math.Nextafter(req, math.Inf(1))}
		if n := checkCert(t, g, ch, band); n != 0 && ch.cert.holdOK {
			t.Fatalf("chip %d: %d periods within one ulp of req %v decided", k, n, req)
		}
		if _, _, ok := g.ZeroThreshold(ch, band); ok && ch.cert.holdOK {
			t.Fatalf("chip %d: threshold over periods within one ulp of req %v decided", k, req)
		}
		if n := checkCert(t, g, ch, []float64{0.9 * req, 1.1 * req}); n != 2 {
			t.Fatalf("chip %d: only %d of two periods 10 %% off req decided", k, n)
		}
		for _, T := range []float64{math.Inf(-1), math.Inf(1), math.NaN()} {
			if _, dec := g.ZeroAt(ch, T); dec && ch.cert.holdOK {
				t.Fatalf("chip %d: period %v decided", k, T)
			}
		}
	}
	spread := func(req float64) []float64 {
		return []float64{-1e3, 0, 0.5 * req, req, 2 * req, 1e6}
	}
	bad := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for k := 0; k < 30; k++ {
		g.RealizeInto(rng, ch)
		p := k % len(g.Pairs)
		c := g.Pairs[p].Capture
		base := cloneChip(ch)
		for _, v := range bad {
			for field := 0; field < 4; field++ {
				ed := cloneChip(base)
				[][]float64{ed.DMax, ed.Setup, ed.DMin, ed.Hold}[field][[]int{p, c, p, c}[field]] = v
				checkCert(t, g, ed, spread(g.RequiredPeriod(ed)))
				if field < 2 && ed.cert.holdOK {
					for _, T := range spread(1) {
						if _, dec := g.ZeroAt(ed, T); dec {
							t.Fatalf("setup operand %v: period %v decided", v, T)
						}
					}
				}
			}
		}
		ed := cloneChip(base)
		ed.DMin[p] = -1e6
		req := g.RequiredPeriod(ed)
		checkCert(t, g, ed, spread(req))
		if n := checkCert(t, g, ed, []float64{0.5 * req, 2 * req}); n != 2 {
			t.Fatalf("hold failure: %d of two periods decided", n)
		}
		if _, _, ok := g.ZeroThreshold(ed, []float64{0.5 * req, 2 * req}); !ok {
			t.Fatal("hold failure: certified threshold undecided")
		}
		if pass, dec := g.ZeroAt(ed, 1e9); !dec || pass {
			t.Fatalf("hold failure at a huge period: pass %v decided %v, want a decided fail", pass, dec)
		}
	}
}

// cloneChip copies a chip's realized values into a literal chip, which
// carries no certificate.
func cloneChip(ch *Chip) *Chip {
	return &Chip{
		DMax:  slices.Clone(ch.DMax),
		DMin:  slices.Clone(ch.DMin),
		Setup: slices.Clone(ch.Setup),
		Hold:  slices.Clone(ch.Hold),
	}
}

// TestCertClearedOnRealize: a chip buffer certified once and realized
// again holds no certificate until certified anew, and a literal or a
// hand-built graph's chip has none at all.
func TestCertClearedOnRealize(t *testing.T) {
	g := buildGraph(t, 12, 60, 41, 0.03)
	rng := rand.New(rand.NewPCG(9, 10))
	ch := g.NewChip()
	for k := 0; k < 10; k++ {
		g.RealizeInto(rng, ch)
		for _, T := range []float64{0, 1e9} {
			if _, dec := g.ZeroAt(ch, T); dec {
				t.Fatalf("chip %d: a fresh realization decided T=%v from the previous chip's certificate", k, T)
			}
		}
		if _, _, ok := g.ZeroThreshold(ch, []float64{1e9}); ok {
			t.Fatalf("chip %d: a fresh realization kept the previous chip's certificate", k)
		}
		checkCert(t, g, ch, []float64{1e9})
		if _, dec := g.ZeroAt(ch, 1e9); !dec {
			t.Fatalf("chip %d: certified chip left T=1e9 undecided", k)
		}
	}
	if _, dec := g.ZeroAt(cloneChip(ch), 1e9); dec {
		t.Fatal("a literal chip decided from a certificate")
	}
	// Another graph's queries never read the certificate, even one that
	// shares the pairs.
	if _, dec := g.WithSkew(make([]float64, g.NS)).ZeroAt(ch, 1e9); dec {
		t.Fatal("a certificate decided for a graph with other skews")
	}
	hand := &Graph{NS: g.NS, Skew: g.Skew, Pairs: g.Pairs}
	if _, _, ok := hand.Certify(ch); ok {
		t.Fatal("a hand-built graph certified a chip")
	}
	if _, dec := g.ZeroAt(ch, 1e9); dec {
		t.Fatal("a refused certification kept the old certificate")
	}
}

// TestCertifyZeroAllocs: the certificate kernels allocate nothing.
func TestCertifyZeroAllocs(t *testing.T) {
	g := buildGraph(t, 20, 100, 23, 0.03)
	ch := g.NewChip()
	g.RealizeInto(rand.New(rand.NewPCG(3, 4)), ch)
	Ts := []float64{1, 10, 100, 1000}
	if avg := testing.AllocsPerRun(100, func() {
		g.Certify(ch)
		g.ZeroAt(ch, 50)
		g.ZeroThreshold(ch, Ts)
	}); avg != 0 {
		t.Fatalf("certificate kernels allocate %v times per run, want 0", avg)
	}
}

// FuzzZeroCert checks the certificate against the scans on realized chips
// with up to two realized values overwritten by arbitrary floats
// (infinities and NaN included), at three periods around req + dT.
func FuzzZeroCert(f *testing.F) {
	g := buildGraph(f, 12, 60, 51, 0.03)
	f.Add(uint64(1), uint8(0), uint16(0), 0.0, uint8(0), uint16(0), 0.0, 0.0, 1.0)
	f.Add(uint64(2), uint8(1), uint16(3), math.Inf(1), uint8(2), uint16(5), -1e6, 0.0, 0.0)
	f.Add(uint64(3), uint8(4), uint16(1), math.NaN(), uint8(7), uint16(2), math.Inf(-1), 1e-13, 1e-13)
	f.Add(uint64(4), uint8(0), uint16(9), 1e300, uint8(1), uint16(9), -1e300, -5.0, 20.0)
	f.Fuzz(func(t *testing.T, k uint64, f1 uint8, i1 uint16, v1 float64, f2 uint8, i2 uint16, v2 float64, dT, spread float64) {
		ch := g.NewChip()
		g.RealizeInto(rand.New(rand.NewPCG(k, 1)), ch)
		for _, ed := range []struct {
			field uint8
			i     uint16
			v     float64
		}{{f1, i1, v1}, {f2, i2, v2}} {
			switch ed.field % 8 { // 4–7 leave the chip as realized
			case 0:
				ch.DMax[int(ed.i)%len(ch.DMax)] = ed.v
			case 1:
				ch.DMin[int(ed.i)%len(ch.DMin)] = ed.v
			case 2:
				ch.Setup[int(ed.i)%len(ch.Setup)] = ed.v
			case 3:
				ch.Hold[int(ed.i)%len(ch.Hold)] = ed.v
			}
		}
		T := g.RequiredPeriod(ch) + dT
		Ts := []float64{T - math.Abs(spread), T, T + math.Abs(spread)}
		if !slices.IsSorted(Ts) {
			t.Skip("periods not ascending (NaN)")
		}
		checkCert(t, g, ch, Ts)
	})
}
