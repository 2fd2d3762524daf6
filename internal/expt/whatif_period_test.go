package expt

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cells"
	"repro/internal/ckt"
	"repro/internal/gen"
	"repro/internal/mc"
	"repro/internal/placement"
	"repro/internal/ssta"
	"repro/internal/timing"
	"repro/internal/variation"
)

// prepareWithSkew prepares c like Prepare, but at the given clock skews
// instead of hold-safe ones, so hold violations are common.
func prepareWithSkew(t testing.TB, c *ckt.Circuit, opt Options, sigma float64) *Bench {
	t.Helper()
	opt.fill()
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	g := timing.Build(a, nil)
	g = g.WithSkew(timing.GenerateSkews(g.NS, sigma*timing.SkewSigma(g.Pairs, 1), opt.Seed+1))
	pl := placement.Grid(g.NS, placement.AdjFromPairs(g.NS, g.FFPairIDs()))
	ps, rec := mc.New(g, opt.Seed+2).RecordPeriod(opt.PeriodSamples)
	return &Bench{Name: c.Name, Circuit: c, Graph: g, Placement: pl, Period: ps,
		Analyzer: a, Opt: opt, periodRec: rec}
}

// whatIfNodes sorts a bench's nodes for edit sets: the gates some pair
// reads (on a register-to-register path), the flip-flops, and the nodes no
// pair reads (ports).
func whatIfNodes(c *ckt.Circuit) (gates, ffs, ports []string) {
	for _, nd := range c.Nodes {
		switch {
		case nd.Kind == ckt.DFF:
			ffs = append(ffs, nd.Name)
		case nd.Kind.IsGate():
			gates = append(gates, nd.Name)
		default:
			ports = append(ports, nd.Name)
		}
	}
	return gates, ffs, ports
}

// criticalEdits shifts by delta the capture D drivers (for a direct arc,
// the launch clk→Q) of the k pairs with
// the largest nominal setup need (hold false) or the smallest nominal hold
// bound (hold true). Most chips list those pairs' needs, or violate those
// pairs' holds, so a large speed-up of the setup-critical pairs leaves
// chips whose listed needs all changed and fell below the last one listed,
// and a hold fix changes listed violators — the chips the record cannot
// always decide.
func criticalEdits(b *Bench, k int, delta float64, hold bool) []Edit {
	g, c := b.Graph, b.Circuit
	nom := g.NominalChip()
	order := make([]int, len(g.Pairs))
	key := make([]float64, len(g.Pairs))
	for p := range order {
		order[p] = p
		if hold {
			key[p] = g.HoldBound(nom, p)
		} else {
			key[p] = -(g.SetupBound(nom, p, 0))
		}
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(key[x], key[y]) })
	if !hold {
		slices.Reverse(order)
	}
	var edits []Edit
	for _, p := range order {
		if len(edits) == k {
			break
		}
		d := c.Nodes[c.FFs()[g.Pairs[p].Capture]].Fanin[0]
		if !c.Nodes[d].Kind.IsGate() {
			d = c.FFs()[g.Pairs[p].Launch] // a direct arc: its launch clk→Q
		}
		if e := (Edit{Node: c.Nodes[d].Name, DeltaPS: delta}); !slices.Contains(edits, e) {
			edits = append(edits, e)
		}
	}
	return edits
}

// TestWhatIfPeriodMatchesFull is the differential pin of the incremental
// what-if period: over 210 edit sets on s9234, s13207, four generated
// circuits and one whose skews violate holds, WhatIf's period statistics
// equal a full PeriodDistribution on the edited graph, compared with ==.
// The sets mix 1–3-gate edits, clk→Q edits, edits no pair observes, large
// speed-ups of the setup-critical pairs and slow-downs of the
// hold-critical ones; the last two must leave some chips to full
// realization while the record decides the rest.
func TestWhatIfPeriodMatchesFull(t *testing.T) {
	type circuit struct {
		name  string
		bench func() *Bench
		sets  int
	}
	preset := func(name string) func() *Bench {
		return func() *Bench {
			b, err := PreparePreset(name, Options{PeriodSamples: 1000})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	generated := func(cfg gen.Config, holdSigma float64) func() *Bench {
		return func() *Bench {
			c, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if holdSigma > 0 {
				return prepareWithSkew(t, c, Options{PeriodSamples: 1000}, holdSigma)
			}
			b, err := Prepare(c, Options{PeriodSamples: 1000})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	circuits := []circuit{
		{"s9234", preset("s9234"), 40},
		{"s13207", preset("s13207"), 30},
		{"gen-a", generated(gen.Config{NumFFs: 100, NumGates: 1200, Seed: 21}, 0), 30},
		{"gen-b", generated(gen.Config{NumFFs: 140, NumGates: 2100, Seed: 22}, 0), 30},
		{"gen-c", generated(gen.Config{NumFFs: 190, NumGates: 2900, Seed: 23}, 0), 30},
		{"gen-d", generated(gen.Config{NumFFs: 60, NumGates: 500, Seed: 24, DeepConeFrac: 0.6}, 0), 30},
		{"gen-hold", generated(gen.Config{NumFFs: 80, NumGates: 700, Seed: 25}, 0.04), 20},
	}
	total, partial := 0, 0
	gateChips, gateRecord := 0, 0 // over the 1–3-gate sets
	for ci, cc := range circuits {
		b := cc.bench()
		if b.periodRec == nil {
			t.Fatalf("%s: prepared bench has no period record", cc.name)
		}
		if cc.name == "gen-hold" && b.Period.HoldViolRate == 0 {
			t.Fatalf("%s: no hold violations at base", cc.name)
		}
		gates, ffs, ports := whatIfNodes(b.Circuit)
		r := rand.New(rand.NewPCG(uint64(ci), 0x5e7))
		delta := func() float64 { return float64(r.IntN(121)-60) / 2 } // −30…30 ps
		n := b.Opt.PeriodSamples
		for s := 0; s < cc.sets; s++ {
			var edits []Edit
			kind := s % 10
			switch kind {
			case 6: // one flip-flop's clk→Q
				edits = []Edit{{Node: ffs[r.IntN(len(ffs))], DeltaPS: delta()}}
			case 7: // a port: no pair observes it
				edits = []Edit{{Node: ports[r.IntN(len(ports))], DeltaPS: 25}}
			case 8: // speed up the setup-critical pairs of most chips
				edits = criticalEdits(b, 2+s%3, -0.1*b.Period.Mu, false)
			case 9: // slow down the hold-critical pairs
				edits = criticalEdits(b, 2+s%3, 0.05*b.Period.Mu, true)
			default: // 1–3 gates
				for e := 0; e < 1+r.IntN(3); e++ {
					edits = append(edits, Edit{Node: gates[r.IntN(len(gates))], DeltaPS: delta()})
				}
			}
			wr, err := b.WhatIf(edits)
			if err != nil {
				t.Fatal(err)
			}
			want := mc.New(wr.Graph, b.Opt.Seed+2).PeriodDistribution(n)
			if wr.Period != want {
				t.Fatalf("%s set %d (%v): what-if period %+v, full pass %+v", cc.name, s, edits, wr.Period, want)
			}
			if wr.Chips.Record+wr.Chips.Full != n {
				t.Fatalf("%s set %d: chips %+v do not add up to %d", cc.name, s, wr.Chips, n)
			}
			if kind == 7 && wr.Chips.Record != n {
				t.Fatalf("%s set %d: an edit no pair observes realized %d chips", cc.name, s, wr.Chips.Full)
			}
			if kind < 6 {
				gateChips += n
				gateRecord += wr.Chips.Record
			}
			if wr.Chips.Full > 0 && wr.Chips.Record > 0 {
				partial++
			}
			total++
		}
	}
	if total < 200 {
		t.Fatalf("%d edit sets, want ≥ 200", total)
	}
	if partial == 0 {
		t.Fatal("no edit set left chips the record could not decide")
	}
	// Narrow edits are what the record is for: it must decide almost every
	// chip of them.
	if gateRecord < gateChips*9/10 {
		t.Fatalf("the record decided %d of %d chips of the 1–3-gate sets", gateRecord, gateChips)
	}
	t.Logf("%d edit sets, %d with chips realized in full; the record decided %d of %d chips of the 1–3-gate sets",
		total, partial, gateRecord, gateChips)
}

// FuzzWhatIfPeriod drives random edit sets on a small generated circuit:
// the incremental and full period statistics must be ==.
func FuzzWhatIfPeriod(f *testing.F) {
	c, err := gen.Generate(gen.Config{NumFFs: 40, NumGates: 300, Seed: 31})
	if err != nil {
		f.Fatal(err)
	}
	b, err := Prepare(c, Options{PeriodSamples: 300})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 10, 5, 200})
	f.Add([]byte{1, 3, 250, 7, 9, 128})
	f.Add([]byte{255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each 2-byte chunk is one edit: a node index and a delta in
		// −64…63.5 ps.
		var edits []Edit
		for i := 0; i+1 < len(data) && len(edits) < 6; i += 2 {
			node := c.Nodes[int(data[i])*len(c.Nodes)/256]
			edits = append(edits, Edit{Node: node.Name, DeltaPS: float64(int8(data[i+1])) / 2})
		}
		if len(edits) == 0 {
			return
		}
		wr, err := b.WhatIf(edits)
		if err != nil {
			t.Fatal(err)
		}
		if want := mc.New(wr.Graph, b.Opt.Seed+2).PeriodDistribution(b.Opt.PeriodSamples); wr.Period != want {
			t.Fatalf("edits %s: what-if period %+v, full pass %+v", fmt.Sprint(edits), wr.Period, want)
		}
	})
}
