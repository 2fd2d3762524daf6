// Package timing turns SSTA pair delays into the setup/hold constraint
// system of the paper's formulation (1)–(3), including the per-flip-flop
// clock skews the authors inject to create additional critical paths.
//
// For tuning delays x and skews q, the constraints at clock period T are
//
//	setup: (qᵢ+xᵢ) + d̄ᵢⱼ ≤ (qⱼ+xⱼ) + T − sⱼ   ⇔  xᵢ − xⱼ ≤ T − sⱼ − d̄ᵢⱼ + qⱼ − qᵢ
//	hold:  (qᵢ+xᵢ) + dᵢⱼ ≥ (qⱼ+xⱼ) + hⱼ       ⇔  xⱼ − xᵢ ≤ dᵢⱼ − hⱼ + qᵢ − qⱼ
//
// A Chip is one Monte-Carlo realization of all random quantities; the
// Graph provides the constraint bounds for any chip and period.
//
// A chip may also carry a zero-tuning certificate (Certify): its required
// period, hold verdict, critical pair and a magnitude bound, from which
// ZeroAt and ZeroThreshold decide "meets T with zero tuning" without a scan
// over the pairs. The certificate belongs to the chip and names the graph
// that computed it; only that graph's queries read it. Realization
// (RealizeDeviates) clears it, so a reused chip buffer never carries the
// previous chip's certificate, and chips built as literals have none. The
// party that realizes a chip decides whether to certify it: mc certifies
// chips it hands to two or more consumers, every materialized population
// and the period distribution's chips. A certified chip must not be edited
// afterwards; an edited copy is a new literal and has no certificate.
package timing

import (
	"math"
	"math/rand/v2"

	"repro/internal/ssta"
	"repro/internal/variation"
)

// Pair is one launch→capture constraint arc with canonical delays.
type Pair struct {
	Launch, Capture int
	Max, Min        variation.Canonical
}

// Graph is the timing constraint structure of a circuit.
type Graph struct {
	NS    int       // number of flip-flops
	Skew  []float64 // deterministic per-FF clock skew (ps)
	Pairs []Pair

	// ends packs each pair's endpoints for the per-chip scans (Certify,
	// PairEnds): eight bytes a pair where the Pair struct is 96. Build sets
	// it; hand-built graphs have none, and their chips never certify.
	ends []Ends

	setup []variation.Canonical // per FF
	hold  []variation.Canonical // per FF
	dim   int                   // global source dimension

	// Realization kernels precomputed by Build; hand-assembled graphs have
	// neither and fall back to the dense canonical forms. Realization is the
	// innermost Monte Carlo loop. When every form loads on exactly the three
	// sources [0 1 2] — the single-region DefaultSpace of every preset and
	// generated circuit — the packed tables feed the unrolled realize3;
	// otherwise (spatial regions) the sparse forms skip the zero
	// sensitivities. Exactly one of the two sets is non-nil.
	pairs3, ffs3    []rec3             // per pair (max, min), per FF (setup, hold)
	maxSp, minSp    []variation.Sparse // per pair
	setupSp, holdSp []variation.Sparse // per FF
}

// form3 is a canonical form over exactly the global sources [0 1 2],
// unpacked for realize3.
type form3 struct{ mean, c0, c1, c2, rand float64 }

// rec3 is one realization record of the packed tables: the two forms that
// share an independent deviate (a pair's max and min delays, or a
// flip-flop's setup and hold times), adjacent in memory.
type rec3 struct{ a, b form3 }

// pack3 returns the packed form of c, or false unless c loads on exactly
// the sources [0 1 2] (its sparse index list is [0 1 2]). A form with a
// zero sensitivity does not pack: padding the zero back in would add a
// 0·g term Sparse.Eval skips, which can change the sign of a zero sum.
func pack3(c variation.Canonical) (form3, bool) {
	if len(c.Sens) != 3 || c.Sens[0] == 0 || c.Sens[1] == 0 || c.Sens[2] == 0 {
		return form3{}, false
	}
	return form3{mean: c.Mean, c0: c.Sens[0], c1: c.Sens[1], c2: c.Sens[2], rand: c.Rand}, true
}

// packRec packs the two forms of one realization record.
func packRec(a, b variation.Canonical) (rec3, bool) {
	fa, okA := pack3(a)
	fb, okB := pack3(b)
	return rec3{fa, fb}, okA && okB
}

// packTables builds the realize3 tables, or returns nil tables when any
// form does not pack.
func (g *Graph) packTables() (pairs, ffs []rec3) {
	var ok bool
	pairs = make([]rec3, len(g.Pairs))
	for p := range g.Pairs {
		if pairs[p], ok = packRec(g.Pairs[p].Max, g.Pairs[p].Min); !ok {
			return nil, nil
		}
	}
	ffs = make([]rec3, g.NS)
	for f := range ffs {
		if ffs[f], ok = packRec(g.setup[f], g.hold[f]); !ok {
			return nil, nil
		}
	}
	return pairs, ffs
}

// Build assembles the constraint graph from an SSTA analyzer and optional
// skews (nil = zero skew).
func Build(a *ssta.Analyzer, skew []float64) *Graph {
	return BuildPairs(a, a.PairDelays(), skew)
}

// BuildPairs assembles the constraint graph from precomputed pair delays —
// a full PairDelays result or an incremental RepropagateCone one. The pair
// forms are copied into evaluation snapshots, the packed tables or the
// sparse forms (and the dense structs are value copies), so the graph's
// realized numbers stay frozen even if the analyzer arena is propagated
// again afterwards; only the dense Pairs[i].Max/Min.Sens slices alias the
// arena, which is why a shared analyzer must be Forked before further
// edits.
func BuildPairs(a *ssta.Analyzer, pairs []ssta.Pair, skew []float64) *Graph {
	ns := a.C.NumFFs()
	if skew == nil {
		skew = make([]float64, ns)
	}
	if len(skew) != ns {
		panic("timing: skew length mismatch")
	}
	g := &Graph{NS: ns, Skew: skew, dim: a.M.Space.Dim()}
	for _, p := range pairs {
		g.Pairs = append(g.Pairs, Pair{Launch: p.Launch, Capture: p.Capture, Max: p.Max, Min: p.Min})
	}
	g.ends = endsOf(g.Pairs)
	g.setup = make([]variation.Canonical, ns)
	g.hold = make([]variation.Canonical, ns)
	for id := 0; id < ns; id++ {
		g.setup[id] = a.Setup(id)
		g.hold[id] = a.Hold(id)
	}
	if g.pairs3, g.ffs3 = g.packTables(); g.pairs3 != nil {
		return g
	}
	g.maxSp = make([]variation.Sparse, len(g.Pairs))
	g.minSp = make([]variation.Sparse, len(g.Pairs))
	for p := range g.Pairs {
		g.maxSp[p] = g.Pairs[p].Max.Sparsify()
		g.minSp[p] = g.Pairs[p].Min.Sparsify()
	}
	g.setupSp = make([]variation.Sparse, ns)
	g.holdSp = make([]variation.Sparse, ns)
	for id := 0; id < ns; id++ {
		g.setupSp[id] = g.setup[id].Sparsify()
		g.holdSp[id] = g.hold[id].Sparsify()
	}
	return g
}

// Dim returns the global variation source dimension.
func (g *Graph) Dim() int { return g.dim }

// Chip is one sampled (virtual) chip: realized pair delays and FF timing.
type Chip struct {
	DMax  []float64 // per pair: realized maximum combinational delay
	DMin  []float64 // per pair: realized minimum combinational delay
	Setup []float64 // per FF
	Hold  []float64 // per FF

	// dev is the chip-owned deviate buffer the realization kernels read,
	// laid out [globals (Dim) | one per pair | one per FF] — the order in
	// which a chip's stream draws them.
	dev []float64

	// cert is the chip's zero-tuning certificate (Certify); its zero value
	// is "none".
	cert zeroCert
}

// NewChip allocates a chip buffer for the graph, deviate buffer included.
func (g *Graph) NewChip() *Chip {
	return &Chip{
		DMax:  make([]float64, len(g.Pairs)),
		DMin:  make([]float64, len(g.Pairs)),
		Setup: make([]float64, g.NS),
		Hold:  make([]float64, g.NS),
		dev:   make([]float64, g.dim+len(g.Pairs)+g.NS),
	}
}

// Deviates returns the chip's deviate buffer, [globals (Dim) | one per
// pair | one per FF]: fill it (Stream.Normals fills it in draw order) and
// call RealizeDeviates. Chips not made by NewChip have none.
func (ch *Chip) Deviates() []float64 { return ch.dev }

// RealizeDeviates evaluates chip ch from its filled deviate buffer: one
// shared global-source vector, one independent deviate per pair (shared
// between its max and min, which are the same physical paths), and one per
// FF timing pair. DMin is clamped to DMax. Graphs assembled by Build
// evaluate through realize3 or their precomputed sparse forms; hand-built
// graphs use the dense canonical forms. All three kernels return
// bit-identical chips, and none makes a call per record.
//
//contract:allocfree
func (g *Graph) RealizeDeviates(ch *Chip) {
	ch.cert = zeroCert{}
	np := len(g.Pairs)
	dev := ch.dev[:g.dim+np+g.NS]
	gvec, rp, rf := dev[:g.dim], dev[g.dim:g.dim+np], dev[g.dim+np:]
	if g.pairs3 != nil {
		realize3(gvec[0], gvec[1], gvec[2], g.pairs3, g.ffs3, rp, rf, ch)
		return
	}
	sparse := g.maxSp != nil
	for p := range g.Pairs {
		r := rp[p]
		var mx, mn float64
		if sparse {
			mx = g.maxSp[p].Eval(gvec, r)
			mn = g.minSp[p].Eval(gvec, r)
		} else {
			pr := &g.Pairs[p]
			mx = pr.Max.Eval(gvec, r)
			mn = pr.Min.Eval(gvec, r)
		}
		if mn > mx {
			mn = mx
		}
		ch.DMax[p] = mx
		ch.DMin[p] = mn
	}
	for f := 0; f < g.NS; f++ {
		r := rf[f]
		var s, h float64
		if sparse {
			s = g.setupSp[f].Eval(gvec, r)
			h = g.holdSp[f].Eval(gvec, r)
		} else {
			s = g.setup[f].Eval(gvec, r)
			h = g.hold[f].Eval(gvec, r)
		}
		if s < 0 {
			s = 0
		}
		if h < 0 {
			h = 0
		}
		ch.Setup[f] = s
		ch.Hold[f] = h
	}
}

// realize3 is the realization kernel of single-region graphs: one pass
// over each packed table with the three global deviates held in locals and
// every form's evaluation unrolled; rp and rf are the per-pair and per-FF
// deviates. It performs exactly the IEEE operations of Sparse.Eval on an
// index list [0 1 2], in the same order, followed by the same clamps, so
// its chips are bit-identical to the sparse and dense kernels'; dropping
// the index indirection and the per-form loop is what makes it faster.
//
//contract:allocfree
func realize3(g0, g1, g2 float64, pairs, ffs []rec3, rp, rf []float64, ch *Chip) {
	dmax, dmin := ch.DMax[:len(pairs)], ch.DMin[:len(pairs)]
	rp = rp[:len(pairs)]
	for p := range pairs {
		q := &pairs[p]
		r := rp[p]
		mx := q.a.mean
		mx += q.a.c0 * g0
		mx += q.a.c1 * g1
		mx += q.a.c2 * g2
		mx = mx + q.a.rand*r
		mn := q.b.mean
		mn += q.b.c0 * g0
		mn += q.b.c1 * g1
		mn += q.b.c2 * g2
		mn = mn + q.b.rand*r
		if mn > mx {
			mn = mx
		}
		dmax[p] = mx
		dmin[p] = mn
	}
	setup, hold := ch.Setup[:len(ffs)], ch.Hold[:len(ffs)]
	rf = rf[:len(ffs)]
	for f := range ffs {
		q := &ffs[f]
		r := rf[f]
		s := q.a.mean
		s += q.a.c0 * g0
		s += q.a.c1 * g1
		s += q.a.c2 * g2
		s = s + q.a.rand*r
		h := q.b.mean
		h += q.b.c0 * g0
		h += q.b.c1 * g1
		h += q.b.c2 * g2
		h = h + q.b.rand*r
		if s < 0 {
			s = 0
		}
		if h < 0 {
			h = 0
		}
		setup[f] = s
		hold[f] = h
	}
}

// SetupBound returns b in the constraint x_launch − x_capture ≤ b for pair
// p at period T on chip ch.
func (g *Graph) SetupBound(ch *Chip, p int, T float64) float64 {
	pr := &g.Pairs[p]
	return T - ch.Setup[pr.Capture] - ch.DMax[p] + g.Skew[pr.Capture] - g.Skew[pr.Launch]
}

// HoldBound returns b in the constraint x_capture − x_launch ≤ b for pair
// p on chip ch (period independent).
func (g *Graph) HoldBound(ch *Chip, p int) float64 {
	pr := &g.Pairs[p]
	return ch.DMin[p] - ch.Hold[pr.Capture] + g.Skew[pr.Launch] - g.Skew[pr.Capture]
}

// RequiredPeriod returns the smallest T at which all setup constraints hold
// with zero tuning (x = 0): max over pairs of d̄ᵢⱼ + sⱼ + qᵢ − qⱼ.
func (g *Graph) RequiredPeriod(ch *Chip) float64 {
	T := 0.0
	for p := range g.Pairs {
		pr := &g.Pairs[p]
		need := ch.DMax[p] + ch.Setup[pr.Capture] + g.Skew[pr.Launch] - g.Skew[pr.Capture]
		if need > T {
			T = need
		}
	}
	return T
}

// HoldViolationsAtZero counts hold constraints violated with zero tuning.
// Like FeasibleAtZero and RequiredPeriod it ignores the chip's certificate:
// the three are the oracles the certificate is tested against.
func (g *Graph) HoldViolationsAtZero(ch *Chip) int {
	n := 0
	for p := range g.Pairs {
		if g.HoldBound(ch, p) < 0 {
			n++
		}
	}
	return n
}

// FeasibleAtZero reports whether the chip meets period T with zero tuning
// (all setup and hold constraints satisfied).
func (g *Graph) FeasibleAtZero(ch *Chip, T float64) bool {
	for p := range g.Pairs {
		if g.SetupBound(ch, p, T) < 0 || g.HoldBound(ch, p) < 0 {
			return false
		}
	}
	return true
}

// NominalChip returns the deterministic chip (all sources at their means).
func (g *Graph) NominalChip() *Chip {
	ch := g.NewChip()
	for p := range g.Pairs {
		ch.DMax[p] = g.Pairs[p].Max.Mean
		mn := g.Pairs[p].Min.Mean
		if mn > ch.DMax[p] {
			mn = ch.DMax[p]
		}
		ch.DMin[p] = mn
	}
	for f := 0; f < g.NS; f++ {
		ch.Setup[f] = g.setup[f].Mean
		ch.Hold[f] = g.hold[f].Mean
	}
	return ch
}

// GenerateSkews draws per-FF clock skews from N(0, sigma), deterministic in
// the seed. The paper adds skews to its benchmarks "so that they have more
// critical paths"; sigma is typically a small fraction of the nominal
// critical path delay (see SkewSigma).
func GenerateSkews(ns int, sigma float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x5ce3))
	out := make([]float64, ns)
	for i := range out {
		out[i] = rng.NormFloat64() * sigma
	}
	return out
}

// SkewSigma derives the skew standard deviation from the pair delays:
// frac × (largest nominal pair delay). frac ≈ 0.02–0.03 spreads criticality
// across many pairs while keeping nominal hold slack positive for the
// bulk of direct register-to-register connections.
func SkewSigma(pairs []Pair, frac float64) float64 {
	worst := 0.0
	for _, p := range pairs {
		if p.Max.Mean > worst {
			worst = p.Max.Mean
		}
	}
	return frac * worst
}

// WithSkew returns a graph sharing this graph's pair delays but using the
// given skews (cheap: no SSTA re-run).
func (g *Graph) WithSkew(skew []float64) *Graph {
	if len(skew) != g.NS {
		panic("timing: skew length mismatch")
	}
	out := *g
	out.Skew = skew
	return &out
}

// HoldSafeSkews draws skews from N(0, sigma) and then scales them down
// until every pair keeps a nominal hold slack of at least its local 3-sigma
// variation margin. Real designs guarantee hold by construction (min-delay
// padding at nominal corner); emulating that here keeps the original yield
// a function of the clock period, as in the paper's Table I, rather than of
// period-independent hold failures.
func (g *Graph) HoldSafeSkews(sigma float64, seed uint64) []float64 {
	sk := GenerateSkews(g.NS, sigma, seed)
	// Per-pair margin: 3σ of the hold-slack randomness (min delay + hold).
	margins := make([]float64, len(g.Pairs))
	for p := range g.Pairs {
		pr := &g.Pairs[p]
		v := pr.Min.Variance() + g.hold[pr.Capture].Variance()
		margins[p] = 3 * math.Sqrt(v)
	}
	holdSafe := func() bool {
		for p := range g.Pairs {
			pr := &g.Pairs[p]
			slack := pr.Min.Mean - g.hold[pr.Capture].Mean + sk[pr.Launch] - sk[pr.Capture]
			if slack < margins[p] {
				return false
			}
		}
		return true
	}
	for iter := 0; iter < 60 && !holdSafe(); iter++ {
		for i := range sk {
			sk[i] *= 0.85
		}
	}
	if !holdSafe() {
		// Zero-skew circuits may themselves violate the margin (very short
		// nominal min paths); fall back to zero skews, which is the closest
		// to "hold met by construction" the structure allows.
		for i := range sk {
			sk[i] = 0
		}
	}
	return sk
}

// PairAdjacency returns, for each FF id, the pair indices touching it.
func (g *Graph) PairAdjacency() [][]int {
	adj := make([][]int, g.NS)
	for p := range g.Pairs {
		pr := &g.Pairs[p]
		adj[pr.Launch] = append(adj[pr.Launch], p)
		if pr.Capture != pr.Launch {
			adj[pr.Capture] = append(adj[pr.Capture], p)
		}
	}
	return adj
}

// FFPairIDs returns the (launch, capture) id pairs, for placement adjacency.
func (g *Graph) FFPairIDs() [][2]int {
	out := make([][2]int, len(g.Pairs))
	for p := range g.Pairs {
		out[p] = [2]int{g.Pairs[p].Launch, g.Pairs[p].Capture}
	}
	return out
}
