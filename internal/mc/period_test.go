package mc

import (
	"sync/atomic"
	"testing"

	"repro/internal/cells"
	"repro/internal/ckt"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/timing"
	"repro/internal/variation"
)

// TestRecordPeriodMatchesDistribution: the recording pass returns
// PeriodDistribution's statistics bit for bit at every worker count, on
// hold-safe and hold-violating skews, and realizes each chip once.
func TestRecordPeriodMatchesDistribution(t *testing.T) {
	e := buildEngine(t, 30, 200, 3)
	g := e.G
	for _, sk := range [][]float64{nil, timing.GenerateSkews(g.NS, 0.05*timing.SkewSigma(g.Pairs, 1), 9)} {
		gg := g
		if sk != nil {
			gg = g.WithSkew(sk)
		}
		want := New(gg, 77).PeriodDistribution(700)
		for _, w := range []int{1, 2, 5} {
			var realized atomic.Int64
			e := &Engine{G: gg, Seed: 77, Workers: w, OnRealize: func(int) { realized.Add(1) }}
			got, rec := e.RecordPeriod(700)
			if got != want || rec == nil || rec.stats != want {
				t.Fatalf("workers %d: recorded %+v (record %v), PeriodDistribution %+v", w, got, rec != nil, want)
			}
			if realized.Load() != 700 {
				t.Fatalf("workers %d: %d realizations for 700 chips", w, realized.Load())
			}
		}
		if sk != nil && want.HoldViolRate == 0 {
			t.Fatal("the skewed graph violates no hold")
		}
	}
}

// TestRecordPeriodUnrevisable: graphs the revision cannot read and
// stratified engines keep no record, and their statistics are still
// PeriodDistribution's.
func TestRecordPeriodUnrevisable(t *testing.T) {
	c, err := gen.Generate(gen.Config{NumFFs: 20, NumGates: 120, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := variation.NewModel(cells.Default())
	m.Space = variation.Space{Params: m.Space.Params, Regions: 2}
	m.RegionOf = func(node int) int { return node % 2 }
	a, err := ssta.New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	sparse := timing.Build(a, nil)
	if sparse.Packed() {
		t.Fatal("a two-region graph packed")
	}
	strat := buildEngine(t, 20, 120, 5)
	strat.Stratify = 4
	for name, e := range map[string]*Engine{"two regions": New(sparse, 1), "stratified": strat} {
		ps, rec := e.RecordPeriod(300)
		if rec != nil || ps != e.PeriodDistribution(300) {
			t.Fatalf("%s: record %v, stats %+v", name, rec != nil, ps)
		}
	}
}

// TestRevisePeriodWithoutUsableRecord: RevisePeriod runs the full pass —
// and counts every chip as realized in full — without a record, on a
// record of another seed or sample count, or across graphs ChangedPairs
// cannot compare; an unchanged graph is answered from the record alone.
func TestRevisePeriodWithoutUsableRecord(t *testing.T) {
	e := buildEngine(t, 30, 200, 6)
	_, rec := e.RecordPeriod(400)
	skewed := e.G.WithSkew(timing.GenerateSkews(e.G.NS, 5, 1))
	cases := []struct {
		name string
		e    *Engine
		rec  *PeriodRecord
		n    int
	}{
		{"no record", e, nil, 400},
		{"other seed", New(e.G, e.Seed+1), rec, 400},
		{"other count", e, rec, 300},
		{"other skews", New(skewed, e.Seed), rec, 400},
	}
	for _, c := range cases {
		ps, rv := c.e.RevisePeriod(c.rec, c.n)
		if ps != c.e.PeriodDistribution(c.n) || rv != (Revision{Full: c.n}) {
			t.Fatalf("%s: %+v %+v", c.name, ps, rv)
		}
	}
	var realized atomic.Int64
	same := &Engine{G: e.G, Seed: e.Seed, OnRealize: func(int) { realized.Add(1) }}
	if ps, rv := same.RevisePeriod(rec, 400); ps != rec.stats || rv != (Revision{Record: 400}) || realized.Load() != 0 {
		t.Fatalf("unchanged graph: %+v %+v, %d realizations", ps, rv, realized.Load())
	}
}

// TestRevisePeriodMatchesFull: on clk→Q edits of every flip-flop of a
// small circuit, both speed-ups and slow-downs, RevisePeriod equals the
// full pass on the edited graph at every worker count, and the chips it
// realizes in full are the ones it counts.
func TestRevisePeriodMatchesFull(t *testing.T) {
	c, err := gen.Generate(gen.Config{NumFFs: 30, NumGates: 250, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	base := timing.Build(a, nil)
	base = base.WithSkew(base.HoldSafeSkews(timing.SkewSigma(base.Pairs, 0.03), 2))
	const n, seed = 500, 31
	_, rec := New(base, seed).RecordPeriod(n)
	full := 0
	for ff, node := range c.FFs() {
		for _, delta := range []float64{-80, 15} {
			f := a.Fork()
			f.AddDelay(node, delta)
			g := timing.BuildPairs(f, f.RepropagateCone(node), base.Skew)
			want := New(g, seed).PeriodDistribution(n)
			for _, w := range []int{1, 3} {
				var realized atomic.Int64
				e := &Engine{G: g, Seed: seed, Workers: w, OnRealize: func(int) { realized.Add(1) }}
				got, rv := e.RevisePeriod(rec, n)
				if got != want {
					t.Fatalf("FF %d %+g ps, %d workers: revised %+v, full %+v", ff, delta, w, got, want)
				}
				if rv.Record+rv.Full != n || int64(rv.Full) != realized.Load() {
					t.Fatalf("FF %d: %+v, %d realizations", ff, rv, realized.Load())
				}
				full += rv.Full
			}
		}
	}
	if full == 0 {
		t.Fatal("no chip was realized in full")
	}
}

// TestRecordBytesPerChip reports the record's size per chip on s9234 and
// on the largest generated circuit perfbench prepares, and holds both to
// 128 bytes.
func TestRecordBytesPerChip(t *testing.T) {
	p, err := gen.PresetByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	s9234, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.Generate(gen.Config{NumFFs: 199, NumGates: 2999, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ckt.Circuit{s9234, big} {
		a, err := ssta.New(c, variation.NewModel(cells.Default()))
		if err != nil {
			t.Fatal(err)
		}
		g := timing.Build(a, nil)
		_, rec := New(g, 1).RecordPeriod(200)
		per := float64(rec.Bytes()) / 200
		t.Logf("%s: %d pairs, %d FFs, %.1f record bytes per chip", c.Name, len(g.Pairs), g.NS, per)
		if per > 128 {
			t.Fatalf("%s: %.1f record bytes per chip, budget 128", c.Name, per)
		}
	}
}
