package expt

import (
	"testing"

	"repro/internal/ckt"
	"repro/internal/gen"
	"repro/internal/yield"
)

func smallBench(t *testing.T) *Bench {
	t.Helper()
	c, err := gen.Generate(gen.Config{NumFFs: 25, NumGates: 130, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(c, Options{PeriodSamples: 600})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPrepare(t *testing.T) {
	b := smallBench(t)
	if b.Period.Mu <= 0 || b.Period.Sigma <= 0 {
		t.Fatalf("period: %+v", b.Period)
	}
	if b.Placement == nil || len(b.Placement.Coords) != b.Graph.NS {
		t.Fatal("placement missing")
	}
	// Skews injected and hold-safe.
	nonzero := false
	for _, s := range b.Graph.Skew {
		if s != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("default options should inject skews")
	}
	if v := b.Graph.HoldViolationsAtZero(b.Graph.NominalChip()); v != 0 {
		t.Fatalf("nominal hold violations: %d", v)
	}
}

func TestPrepareNoSkew(t *testing.T) {
	c, _ := gen.Generate(gen.Config{NumFFs: 10, NumGates: 40, Seed: 2})
	b, err := Prepare(c, Options{SkewFrac: -1, PeriodSamples: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range b.Graph.Skew {
		if s != 0 {
			t.Fatal("negative SkewFrac must disable skews")
		}
	}
}

// TestSeedZeroSelectable: the zero seed used to be silently rewritten to
// the default (0xBEEF), so the seed-0 universe was unreachable. HasSeed
// makes it explicit; the zero Options value keeps the default.
func TestSeedZeroSelectable(t *testing.T) {
	c, _ := gen.Generate(gen.Config{NumFFs: 12, NumGates: 50, Seed: 3})
	def, err := Prepare(c, Options{PeriodSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	defExplicit, err := Prepare(c, Options{PeriodSamples: 300, Seed: 0xBEEF})
	if err != nil {
		t.Fatal(err)
	}
	if def.Period != defExplicit.Period {
		t.Fatal("zero value must keep the documented default seed")
	}
	zero, err := Prepare(c, Options{PeriodSamples: 300, Seed: 0, HasSeed: true})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Period == def.Period {
		t.Fatal("explicit seed 0 must select a different universe than the default")
	}
}

// TestSkewFracZeroSelectable: explicit zero skew equals the negative
// no-skew sentinel instead of being rewritten to the 3 % default.
func TestSkewFracZeroSelectable(t *testing.T) {
	c, _ := gen.Generate(gen.Config{NumFFs: 12, NumGates: 50, Seed: 3})
	zero, err := Prepare(c, Options{SkewFrac: 0, HasSkewFrac: true, PeriodSamples: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range zero.Graph.Skew {
		if s != 0 {
			t.Fatal("explicit zero SkewFrac must disable skews")
		}
	}
	def, err := Prepare(c, Options{PeriodSamples: 200})
	if err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, s := range def.Graph.Skew {
		if s != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("zero value must keep the 3% default skews")
	}
}

func TestOptionsCanonicalAndKey(t *testing.T) {
	if (Options{}).Key() != (Options{SkewFrac: 0.03, Seed: 0xBEEF, PeriodSamples: 4000, Regions: 1}).Key() {
		t.Fatal("zero options must canonicalize to the defaults")
	}
	if (Options{SkewFrac: -3}).Key() != (Options{SkewFrac: -0.5}).Key() {
		t.Fatal("all negative skew fractions mean no-skew")
	}
	if (Options{SkewFrac: -1}).Key() != (Options{HasSkewFrac: true}).Key() {
		t.Fatal("explicit zero skew and negative skew are the same preparation")
	}
	if (Options{}).Key() == (Options{HasSeed: true}).Key() {
		t.Fatal("explicit seed 0 must key differently from the default seed")
	}
	if (Options{Regions: 0}).Key() != (Options{Regions: 1}).Key() {
		t.Fatal("0 and 1 regions are the same model")
	}
	if (Options{Regions: 1}).Key() == (Options{Regions: 4}).Key() {
		t.Fatal("region count must be part of the key")
	}
	// Canonical is idempotent.
	c := Options{PeriodSamples: 123, Seed: 7}.Canonical()
	if c != c.Canonical() {
		t.Fatal("Canonical not idempotent")
	}
}

func TestTargets(t *testing.T) {
	b := smallBench(t)
	if b.PeriodFor(MuT) != b.Period.Mu {
		t.Fatal("MuT")
	}
	if b.PeriodFor(MuTPlusSigma) != b.Period.Mu+b.Period.Sigma {
		t.Fatal("MuT+sigma")
	}
	if b.PeriodFor(MuTPlus2Sigma) != b.Period.Mu+2*b.Period.Sigma {
		t.Fatal("MuT+2sigma")
	}
	if MuT.String() != "muT" || MuTPlusSigma.String() != "muT+sigma" || MuTPlus2Sigma.String() != "muT+2sigma" {
		t.Fatal("target names")
	}
	if Target(9).String() != "?" {
		t.Fatal("unknown target")
	}
	if len(Targets) != 3 {
		t.Fatal("three Table I targets")
	}
}

func TestPeriodForPanics(t *testing.T) {
	b := smallBench(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.PeriodFor(Target(7))
}

func TestRunRow(t *testing.T) {
	b := smallBench(t)
	row, err := RunRow(b, MuT, RowConfig{InsertSamples: 200, EvalSamples: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if row.Circuit != b.Name || row.NS != 25 || row.NG != 130 {
		t.Fatalf("row identity: %+v", row)
	}
	if row.Yo < 35 || row.Yo > 65 {
		t.Fatalf("Yo at µT = %v", row.Yo)
	}
	if row.Y < row.Yo {
		t.Fatal("Y must be ≥ Yo")
	}
	if row.Yi != row.Y-row.Yo {
		t.Fatal("Yi arithmetic")
	}
	if row.Nb != len(row.Insert.Groups) {
		t.Fatal("Nb must be group count")
	}
	if row.Runtime <= 0 {
		t.Fatal("runtime recorded")
	}
}

// TestRunRowsSharedEvalMatchesRunRow: batching every target's yield
// measurement into one realization pass reports the same numbers as the
// row-at-a-time path.
func TestRunRowsSharedEvalMatchesRunRow(t *testing.T) {
	b := smallBench(t)
	rc := RowConfig{InsertSamples: 150, EvalSamples: 600, Seed: 3}
	rows, err := RunRows(b, Targets, rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Targets) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, tgt := range Targets {
		solo, err := RunRow(b, tgt, rc)
		if err != nil {
			t.Fatal(err)
		}
		got, want := rows[i], solo
		if got.Yo != want.Yo || got.Y != want.Y || got.Yi != want.Yi ||
			got.Nb != want.Nb || got.Ab != want.Ab || got.T != want.T ||
			got.YieldRep != want.YieldRep {
			t.Fatalf("target %v: shared-pass row %+v != solo row %+v", tgt, got, want)
		}
	}
	// Yields must not decrease across the µT, µT+σ, µT+2σ targets.
	for i := 1; i < len(rows); i++ {
		if rows[i].Yo < rows[i-1].Yo {
			t.Fatalf("Yo not monotone across targets: %v", rows)
		}
	}
}

// TestRunRowsAdaptive: Eps switches the shared yield pass to sequential
// evaluation — rows carry the adaptive report instead of the exact one, the
// estimates agree with a fixed-n run to within the reported interval.
func TestRunRowsAdaptive(t *testing.T) {
	b := smallBench(t)
	rc := RowConfig{InsertSamples: 150, EvalSamples: 2000, Seed: 3}
	exact, err := RunRows(b, Targets, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Eps, rc.Conf = 0.05, 0.9
	rows, err := RunRows(b, Targets, rc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rep := rows[i].Adaptive
		if rep == nil {
			t.Fatalf("row %d: no adaptive report", i)
		}
		if rows[i].YieldRep != (yield.Report{}) {
			t.Fatalf("row %d: exact report filled on an adaptive run", i)
		}
		if rep.SamplesUsed > rc.EvalSamples || rep.Waves < 1 {
			t.Fatalf("row %d: implausible wave loop %+v", i, rep)
		}
		// The exact run shares the chip universe, so the sequential estimate
		// must sit within its interval of the exact rate plus that rate's own
		// Monte Carlo slack.
		diff := rows[i].Yo - exact[i].Yo
		if diff < 0 {
			diff = -diff
		}
		if diff > rep.Original[0].HalfWidth*100+5 {
			t.Fatalf("row %d: adaptive Yo %.2f far from exact %.2f (±%.2f)",
				i, rows[i].Yo, exact[i].Yo, rep.Original[0].HalfWidth*100)
		}
		if got, want := rows[i].Yi, rows[i].Y-rows[i].Yo; got != want {
			t.Fatalf("row %d: Yi arithmetic: %v != %v", i, got, want)
		}
	}

}

func TestRegionAssigner(t *testing.T) {
	c, _ := gen.Generate(gen.Config{NumFFs: 40, NumGates: 200, Seed: 4})
	regions := 4
	assign := RegionAssigner(c, regions)
	seen := map[int]int{}
	for node := range c.Nodes {
		r := assign(node)
		if r < 0 || r >= regions {
			t.Fatalf("node %d region %d out of range", node, r)
		}
		seen[r]++
	}
	if len(seen) < 2 {
		t.Fatalf("regions unused: %v", seen)
	}
	// FFs partition by id blocks: first FF in region 0, last in region 3.
	ffs := c.FFs()
	if assign(ffs[0]) != 0 || assign(ffs[len(ffs)-1]) != regions-1 {
		t.Fatalf("FF block partition broken: %d %d", assign(ffs[0]), assign(ffs[len(ffs)-1]))
	}
	// A gate feeding a DFF D-pin shares that FF's region.
	for _, ffNode := range ffs {
		d := c.Nodes[ffNode].Fanin[0]
		if c.Nodes[d].Kind == ckt.DFF {
			continue
		}
		if assign(d) != assign(ffNode) {
			t.Fatalf("driver gate region %d != capture FF region %d", assign(d), assign(ffNode))
		}
	}
	// Out-of-range nodes default to 0.
	if assign(-1) != 0 || assign(len(c.Nodes)+5) != 0 {
		t.Fatal("out-of-range nodes")
	}
}

func TestPrepareWithRegions(t *testing.T) {
	c, _ := gen.Generate(gen.Config{NumFFs: 30, NumGates: 150, Seed: 6})
	b1, err := Prepare(c, Options{PeriodSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	b4, err := Prepare(c, Options{PeriodSamples: 500, Regions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b4.Graph.Dim() != 12 {
		t.Fatalf("4 regions × 3 params should give 12 sources, got %d", b4.Graph.Dim())
	}
	// Less correlation → more independent variation → σT differs from the
	// single-region die (usually smaller relative to µT for the max).
	if b1.Period.Mu <= 0 || b4.Period.Mu <= 0 {
		t.Fatal("period stats")
	}
	if b1.Period.Sigma == b4.Period.Sigma {
		t.Fatal("regions should change the period distribution")
	}
}

func TestPreparePresetErrors(t *testing.T) {
	if _, err := PreparePreset("nope", Options{}); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestFig4Data(t *testing.T) {
	b := smallBench(t)
	row, err := RunRow(b, MuT, RowConfig{InsertSamples: 200, EvalSamples: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := Fig4Data(row.Insert)
	if len(nodes) == 0 {
		t.Fatal("no Fig4 nodes at µT")
	}
	prunedSeen := false
	for _, n := range nodes {
		if n.Count <= 0 {
			t.Fatal("zero-count node reported")
		}
		if n.Pruned {
			prunedSeen = true
		}
	}
	_ = prunedSeen // pruning may legitimately remove nothing on tiny runs
}

func TestFig5Data(t *testing.T) {
	b := smallBench(t)
	row, err := RunRow(b, MuT, RowConfig{InsertSamples: 250, EvalSamples: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Insert.Buffers) == 0 {
		t.Skip("no buffers")
	}
	s1, s2, ok := Fig5Data(row.Insert, -1)
	if !ok {
		t.Fatal("auto-select failed")
	}
	if s1.FF != s2.FF {
		t.Fatal("panels must describe the same buffer")
	}
	if len(s1.Values) == 0 {
		t.Fatal("step-1 values empty for most-used buffer")
	}
	// Explicit FF selection.
	ff := row.Insert.Buffers[0].FF
	e1, _, ok := Fig5Data(row.Insert, ff)
	if !ok || e1.FF != ff {
		t.Fatal("explicit FF selection")
	}
	// Unknown FF.
	if _, _, ok := Fig5Data(row.Insert, 10_000); ok {
		t.Fatal("unknown FF must return !ok")
	}
}
