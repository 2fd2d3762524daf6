package timing

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// normClass classifies the next normal draw of s without consuming it:
// 0 fast path, 1 base-strip tail (i == 0), 2 wedge test.
func normClass(s Stream) int {
	u := s.uint64()
	j, t := int32(u), u>>32&0x7F
	switch {
	case absInt32(j) < kn[t]:
		return 0
	case t == 0:
		return 1
	}
	return 2
}

// nextSlow returns how many fast draws precede the next slow-path normal
// draw of s, and that draw's class (1 tail, 2 wedge).
func nextSlow(s Stream) (fast, class int) {
	for {
		if c := normClass(s); c != 0 {
			return fast, c
		}
		s.uint64()
		fast++
	}
}

// checkAgainst drives s and ref through the same call pattern and fails on
// the first draw that differs bit for bit. A pattern entry of 0 is one
// Float64 call; n > 0 is one Normals call of length n.
func checkAgainst(t *testing.T, s *Stream, ref *rand.Rand, pattern []int, buf []float64) {
	t.Helper()
	for c, n := range pattern {
		if n == 0 {
			if got, want := s.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("call %d: Float64 = %v, math/rand/v2 %v", c, got, want)
			}
			continue
		}
		s.Normals(buf[:n])
		for i, got := range buf[:n] {
			if want := ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("call %d draw %d of %d: Normals = %v, math/rand/v2 NormFloat64 %v", c, i, n, got, want)
			}
		}
	}
}

// TestStreamMatchesMathRand pins Stream to math/rand/v2 bit for bit: 64
// seed pairs × 10⁶ draws each, with Float64 calls mixed into Normals calls
// of varying length — single draws, long fills, and fills that end exactly
// on a slow-path (tail or wedge) draw. It also asserts that those slow
// paths were taken, so a stream that never leaves the fast path cannot
// pass by luck.
func TestStreamMatchesMathRand(t *testing.T) {
	const pairs, draws = 64, 1_000_000
	buf := make([]float64, 4096)
	var tails, wedges int
	for p := 0; p < pairs; p++ {
		s1, s2 := uint64(p)*0x9E3779B97F4A7C15, uint64(p)^0xD1B54A32D192ED03
		if p == 0 {
			s1, s2 = 0, 0
		}
		var s Stream
		s.Seed(s1, s2)
		ref := rand.New(rand.NewPCG(s1, s2))
		lens := rand.New(rand.NewPCG(uint64(p), 77))
		for done := 0; done < draws; {
			var n int
			switch m := lens.IntN(8); m {
			case 0:
				n = 0 // one Float64
			case 1:
				n = 1
			case 2, 3:
				// End this fill on the next slow-path draw.
				fast, class := nextSlow(s)
				if fast+1 > len(buf) {
					n = len(buf)
					break
				}
				n = fast + 1
				if class == 1 {
					tails++
				} else {
					wedges++
				}
			default:
				n = 1 + lens.IntN(len(buf))
			}
			checkAgainst(t, &s, ref, []int{n}, buf)
			done += max(n, 1)
		}
	}
	if tails == 0 || wedges == 0 {
		t.Fatalf("slow paths not exercised: %d tail and %d wedge draws ended a fill", tails, wedges)
	}
	t.Logf("%d fills ended on a tail draw, %d on a wedge draw", tails, wedges)
}

// TestAbsInt32MatchesBranchingForm pins the branch-free absInt32 to
// math/rand/v2's branching form, including at MinInt32.
func TestAbsInt32MatchesBranchingForm(t *testing.T) {
	ref := func(i int32) uint32 {
		if i < 0 {
			return uint32(-i)
		}
		return uint32(i)
	}
	for _, i := range []int32{0, 1, -1, 2, -2, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, 0x76ad2212, -0x76ad2212} {
		if got, want := absInt32(i), ref(i); got != want {
			t.Fatalf("absInt32(%d) = %#x, want %#x", i, got, want)
		}
	}
}

// FuzzStream drives Stream and math/rand/v2 from the same seed pair through
// a fuzzed call pattern: each pattern byte b is one Float64 call when
// b%64 == 0, else one Normals call of length b%64 (scaled up ×16 when
// b ≥ 128, so long fills occur too).
func FuzzStream(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{1})
	f.Add(uint64(1), uint64(2), []byte{0, 1, 63, 200, 64, 7})
	f.Add(uint64(12345), uint64(0xD1B54A32D192ED03), []byte{255, 128, 0, 0, 3})
	buf := make([]float64, 64*16)
	f.Fuzz(func(t *testing.T, s1, s2 uint64, pattern []byte) {
		if len(pattern) > 256 {
			pattern = pattern[:256]
		}
		calls := make([]int, len(pattern))
		for i, b := range pattern {
			n := int(b % 64)
			if b >= 128 {
				n *= 16
			}
			calls[i] = n
		}
		var s Stream
		s.Seed(s1, s2)
		checkAgainst(t, &s, rand.New(rand.NewPCG(s1, s2)), calls, buf)
	})
}

// stepN advances s by n single generator steps, the reference Advance
// must equal.
func stepN(s *Stream, n uint64) {
	for ; n > 0; n-- {
		s.uint64()
	}
}

// TestStreamAdvance: Advance(n) reaches the state n single steps reach,
// for every n up to 10⁵ from one seed (stepping once between checks) and
// at random n from random seeds and random starting points, with the step
// count following; Advance(0) is a no-op.
func TestStreamAdvance(t *testing.T) {
	var ref, s Stream
	ref.Seed(7, 11)
	for n := uint64(0); n <= 100_000; n++ {
		s.Seed(7, 11)
		s.Advance(n)
		if s != ref {
			t.Fatalf("Advance(%d) = %+v, %d steps reach %+v", n, s, n, ref)
		}
		ref.uint64()
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 200; i++ {
		s1, s2 := rng.Uint64(), rng.Uint64()
		var a, b Stream
		a.Seed(s1, s2)
		b.Seed(s1, s2)
		skip := rng.Uint64N(1000)
		stepN(&a, skip)
		stepN(&b, skip)
		n := rng.Uint64N(50_000)
		a.Advance(n)
		stepN(&b, n)
		if a != b {
			t.Fatalf("seed (%d, %d) at %d: Advance(%d) = %+v, steps reach %+v", s1, s2, skip, n, a, b)
		}
		if a.Steps() != skip+n {
			t.Fatalf("Steps() = %d after %d steps and Advance(%d)", a.Steps(), skip, n)
		}
	}
}

// FuzzStreamAdvance: from any seed, Advance(n) then draws equal n single
// steps then the same draws, and Advance composes: Advance(m) then
// Advance(n) equals Advance(m+n) for any m < 2⁶³.
func FuzzStreamAdvance(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(0), uint64(0))
	f.Add(uint64(1), uint64(2), uint16(777), uint64(1)<<63)
	f.Add(uint64(0xdead), uint64(0xbeef), uint16(65535), ^uint64(0))
	f.Fuzz(func(t *testing.T, s1, s2 uint64, n uint16, m uint64) {
		var a, b Stream
		a.Seed(s1, s2)
		b.Seed(s1, s2)
		a.Advance(uint64(n))
		stepN(&b, uint64(n))
		if a.Float64() != b.Float64() || a != b {
			t.Fatalf("Advance(%d) drifts from %d single steps", n, n)
		}
		m >>= 1 // keep m+n below 2⁶⁴
		var c, d Stream
		c.Seed(s1, s2)
		d.Seed(s1, s2)
		c.Advance(m)
		c.Advance(uint64(n))
		d.Advance(m + uint64(n))
		if c != d {
			t.Fatalf("Advance(%d) then Advance(%d) differs from Advance(%d)", m, n, m+uint64(n))
		}
	})
}

// TestNormalsMarkedSeeks: NormalsMarked fills exactly what Normals fills,
// and from its marks every draw is reached again by seeding, jumping to
// its block's first step and drawing up to it — the way a period record
// regenerates a chip's deviates. Long fills cross many slow-path draws.
func TestNormalsMarkedSeeks(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 33, 775, 4736} {
		for seed := uint64(0); seed < 20; seed++ {
			var s, ref Stream
			s.Seed(seed, 99)
			ref.Seed(seed, 99)
			got, want := make([]float64, n), make([]float64, n)
			marks := make([]uint8, MarkCount(n))
			if !s.NormalsMarked(got, marks) {
				t.Fatalf("n=%d seed %d: a mark overflowed", n, seed)
			}
			ref.Normals(want)
			if !slices.Equal(got, want) || s != ref {
				t.Fatalf("n=%d seed %d: NormalsMarked differs from Normals", n, seed)
			}
			buf := make([]float64, MarkStride)
			off := uint64(0)
			for b := 0; b*MarkStride < n; b++ {
				if b > 0 {
					off += MarkStride + MarkExtra(marks, b-1)
				}
				var r Stream
				r.Seed(seed, 99)
				r.Advance(off)
				m := min(MarkStride, n-b*MarkStride)
				r.Normals(buf[:m])
				if !slices.Equal(buf[:m], want[b*MarkStride:b*MarkStride+m]) {
					t.Fatalf("n=%d seed %d: block %d drawn again differs", n, seed, b)
				}
			}
		}
	}
}

// TestAdvanceZeroAllocs: the seek kernels allocate nothing.
func TestAdvanceZeroAllocs(t *testing.T) {
	var s Stream
	buf := make([]float64, 40)
	marks := make([]uint8, MarkCount(len(buf)))
	if avg := testing.AllocsPerRun(100, func() {
		s.Seed(1, 2)
		s.NormalsMarked(buf, marks)
		s.Advance(12345)
	}); avg != 0 {
		t.Fatalf("seek kernels allocate %v times per run, want 0", avg)
	}
}

// BenchmarkNormalStream compares one chip's worth of normal draws (775,
// the deviate count of an s9234 chip) from one Stream.Normals fill against
// per-draw math/rand/v2 NormFloat64 calls through the interface the
// kernels used to take.
func BenchmarkNormalStream(b *testing.B) {
	const n = 775
	buf := make([]float64, n)
	b.Run("stream", func(b *testing.B) {
		var s Stream
		for i := 0; i < b.N; i++ {
			s.Seed(1, uint64(i))
			s.Normals(buf)
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		src := rand.NewPCG(1, 0)
		var ns NormSource = rand.New(src)
		for i := 0; i < b.N; i++ {
			src.Seed(1, uint64(i))
			for j := range buf {
				buf[j] = ns.NormFloat64()
			}
		}
	})
}
