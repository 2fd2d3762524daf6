package ckt

import (
	"strings"
	"testing"
)

// tiny builds:  in → g1(NOT) → ff1(DFF) → g2(AND with in2) → ff2 → out
func tiny(t *testing.T) *Circuit {
	t.Helper()
	c := New("tiny")
	in := c.MustAddNode("in", Input)
	in2 := c.MustAddNode("in2", Input)
	g1 := c.MustAddNode("g1", Not)
	ff1 := c.MustAddNode("ff1", DFF)
	g2 := c.MustAddNode("g2", And)
	ff2 := c.MustAddNode("ff2", DFF)
	out := c.MustAddNode("out", Output)
	c.MustConnect(in, g1)
	c.MustConnect(g1, ff1)
	c.MustConnect(ff1, g2)
	c.MustConnect(in2, g2)
	c.MustConnect(g2, ff2)
	c.MustConnect(ff2, out)
	if err := c.Validate(); err != nil {
		t.Fatalf("tiny invalid: %v", err)
	}
	return c
}

func TestBuildAndAccessors(t *testing.T) {
	c := tiny(t)
	if got := c.NumFFs(); got != 2 {
		t.Fatalf("NumFFs = %d", got)
	}
	if got := c.NumGates(); got != 2 {
		t.Fatalf("NumGates = %d", got)
	}
	if len(c.Inputs()) != 2 || len(c.Outputs()) != 1 {
		t.Fatalf("ports: %d in %d out", len(c.Inputs()), len(c.Outputs()))
	}
	ffs := c.FFs()
	if c.FFID(ffs[0]) != 0 || c.FFID(ffs[1]) != 1 {
		t.Fatal("FFID broken")
	}
	if c.FFID(0) != -1 {
		t.Fatal("FFID of non-FF should be -1")
	}
	if _, ok := c.Index("g2"); !ok {
		t.Fatal("Index lookup failed")
	}
	if !strings.Contains(c.String(), "2 FFs") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestAddNodeErrors(t *testing.T) {
	c := New("x")
	if _, err := c.AddNode("", Input); err == nil {
		t.Fatal("empty name should error")
	}
	c.MustAddNode("a", Input)
	if _, err := c.AddNode("a", And); err == nil {
		t.Fatal("duplicate name should error")
	}
}

func TestConnectErrors(t *testing.T) {
	c := New("x")
	a := c.MustAddNode("a", Input)
	b := c.MustAddNode("b", Input)
	if err := c.Connect(a, b); err == nil {
		t.Fatal("fan-in into primary input should error")
	}
	if err := c.Connect(a, 99); err == nil {
		t.Fatal("out-of-range should error")
	}
	if err := c.Connect(-1, a); err == nil {
		t.Fatal("out-of-range should error")
	}
}

func TestValidateArity(t *testing.T) {
	c := New("x")
	a := c.MustAddNode("a", Input)
	g := c.MustAddNode("g", And)
	c.MustConnect(a, g)
	if err := c.Validate(); err == nil {
		t.Fatal("AND with one input should fail validation")
	}
	c2 := New("y")
	a2 := c2.MustAddNode("a", Input)
	b2 := c2.MustAddNode("b", Input)
	n2 := c2.MustAddNode("n", Not)
	c2.MustConnect(a2, n2)
	c2.MustConnect(b2, n2)
	if err := c2.Validate(); err == nil {
		t.Fatal("NOT with two inputs should fail validation")
	}
}

func TestValidateCombCycle(t *testing.T) {
	c := New("loop")
	a := c.MustAddNode("a", Input)
	g1 := c.MustAddNode("g1", And)
	g2 := c.MustAddNode("g2", And)
	c.MustConnect(a, g1)
	c.MustConnect(g2, g1)
	c.MustConnect(g1, g2)
	c.MustConnect(a, g2)
	if err := c.Validate(); err == nil {
		t.Fatal("combinational loop should fail validation")
	}
}

func TestSequentialLoopLegal(t *testing.T) {
	// FF feeding logic feeding the same FF is legal.
	c := New("seqloop")
	ff := c.MustAddNode("ff", DFF)
	inv := c.MustAddNode("inv", Not)
	c.MustConnect(ff, inv)
	c.MustConnect(inv, ff)
	if err := c.Validate(); err != nil {
		t.Fatalf("sequential loop should be legal: %v", err)
	}
	g := c.CombGraph()
	if g.HasCycle() {
		t.Fatal("CombGraph must be acyclic for sequential loops")
	}
}

func TestComputeStats(t *testing.T) {
	c := tiny(t)
	s, err := c.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.FFs != 2 || s.Gates != 2 || s.Inputs != 2 || s.Outputs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Depth < 1 {
		t.Fatalf("depth = %d", s.Depth)
	}
}

func TestClone(t *testing.T) {
	c := tiny(t)
	d := c.Clone()
	if !Equal(c, d) {
		t.Fatal("clone should be structurally equal")
	}
	// Mutating the clone must not affect the original.
	d.Nodes[0].Fanout = append(d.Nodes[0].Fanout, 0)
	if len(c.Nodes[0].Fanout) == len(d.Nodes[0].Fanout) {
		t.Fatal("clone shares fanout slice")
	}
}

const sampleBench = `# demo
# 2 inputs
INPUT(a)
INPUT(b)
OUTPUT(q)

f = DFF(g2)
g1 = NAND(a, b)
g2 = OR(g1, f)
q = BUFF(f)
`

func TestParseBench(t *testing.T) {
	c, err := ParseBenchString(sampleBench, "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" {
		t.Fatalf("name = %q", c.Name)
	}
	if c.NumFFs() != 1 || c.NumGates() != 3 {
		t.Fatalf("parsed %d FFs %d gates", c.NumFFs(), c.NumGates())
	}
	// BUFF alias maps to Buf.
	i, ok := c.Index("q")
	if !ok || c.Nodes[i].Kind != Buf {
		t.Fatal("BUFF alias not handled")
	}
	// OUTPUT(q) materializes q$po.
	if _, ok := c.Index("q$po"); !ok {
		t.Fatal("output node not materialized")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT()",
		"x = FOO(a)",
		"x = AND(a,)",
		"x AND(a, b)",
		"x = AND(a, b)", // undefined a, b
		"INPUT(a)\nx = DFF(a)\nx = DFF(a)",
		"OUTPUT(nosuch)",
		"INPUT(a)\nx = AND(a", // malformed parens
	}
	for _, src := range cases {
		if _, err := ParseBenchString(src, "t"); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	orig, err := ParseBenchString(sampleBench, "t")
	if err != nil {
		t.Fatal(err)
	}
	text, err := BenchString(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBenchString(text, "t2")
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if !Equal(orig, back) {
		t.Fatalf("round trip not equal:\n%s", text)
	}
}

func TestBenchRoundTripTiny(t *testing.T) {
	c := tiny(t)
	text, err := BenchString(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBenchString(text, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFFs() != c.NumFFs() || back.NumGates() != c.NumGates() {
		t.Fatalf("round trip lost nodes:\n%s", text)
	}
}

func TestEqualNegative(t *testing.T) {
	a, _ := ParseBenchString(sampleBench, "a")
	b, _ := ParseBenchString(strings.Replace(sampleBench, "NAND", "NOR", 1), "b")
	if Equal(a, b) {
		t.Fatal("different gate kinds should not be Equal")
	}
}

func TestKindHelpers(t *testing.T) {
	if !And.IsGate() || DFF.IsGate() || Input.IsGate() {
		t.Fatal("IsGate misclassifies")
	}
	if And.MinFanin() != 2 || Not.MaxFanin() != 1 || And.MaxFanin() != 0 {
		t.Fatal("fan-in bounds wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind string")
	}
	if And.String() != "AND" {
		t.Fatalf("And = %q", And.String())
	}
}

func TestMultiFaninDFFRejected(t *testing.T) {
	// Regression: a DFF with two D drivers must fail validation with an
	// explicit DFF diagnostic — the SSTA pair extraction reads only
	// Fanin[0], so letting such a netlist through would silently drop
	// timing arcs and overstate yield.
	c := New("dualD")
	ff0 := c.MustAddNode("ff0", DFF)
	g1 := c.MustAddNode("g1", Buf)
	g2 := c.MustAddNode("g2", Buf)
	ff1 := c.MustAddNode("ff1", DFF)
	c.MustConnect(ff0, g1)
	c.MustConnect(ff0, g2)
	c.MustConnect(g1, ff1)
	c.MustConnect(g2, ff1)
	c.MustConnect(ff1, ff0)
	err := c.Validate()
	if err == nil {
		t.Fatal("multi-fanin DFF must fail validation")
	}
	if !strings.Contains(err.Error(), "DFF") || !strings.Contains(err.Error(), "ff1") {
		t.Fatalf("diagnostic should name the DFF and its nature, got: %v", err)
	}
}

// s27Bench is the ISCAS89 s27 netlist: 4 inputs, 1 output, 3 DFFs and
// 10 gates, small enough to seed a fuzzer.
const s27Bench = `# s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

// FuzzParseBench drives the .bench parser with untrusted text (inline
// netlists on /v1/prepare take this path): nothing may panic, and a
// netlist that parses must survive BenchString and a re-parse as an
// Equal circuit.
func FuzzParseBench(f *testing.F) {
	f.Add(s27Bench)
	f.Add(sampleBench)
	f.Add("INPUT(a)\nOUTPUT(x)\nx = AND(a, a)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBenchString(src, "fuzz")
		if err != nil {
			return
		}
		text, err := BenchString(c)
		if err != nil {
			t.Fatalf("BenchString of a parsed circuit: %v", err)
		}
		back, err := ParseBenchString(text, "fuzz")
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, text)
		}
		if !Equal(c, back) {
			t.Fatalf("round trip not Equal:\n--- input\n%s\n--- written\n%s", src, text)
		}
	})
}
