package ckt

import (
	"strings"
	"testing"
)

// pipeline builds: ff0 → a(NOT) → b(AND with ff1) → ff2 ; ff1 → b ; plus
// feedback ff2 → ff0, ff2 → ff1 to drive the D pins.
func pipeline(t *testing.T) *Circuit {
	t.Helper()
	c := New("pipe")
	ff0 := c.MustAddNode("ff0", DFF)
	ff1 := c.MustAddNode("ff1", DFF)
	ff2 := c.MustAddNode("ff2", DFF)
	a := c.MustAddNode("a", Not)
	b := c.MustAddNode("b", And)
	c.MustConnect(ff0, a)
	c.MustConnect(a, b)
	c.MustConnect(ff1, b)
	c.MustConnect(b, ff2)
	c.MustConnect(ff2, ff0)
	c.MustConnect(ff2, ff1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFaninCone(t *testing.T) {
	c := pipeline(t)
	ff2, _ := c.Index("ff2")
	cone := c.FaninCone(ff2)
	// Cone of ff2: itself, b, a, ff0, ff1.
	want := map[string]bool{"ff2": true, "b": true, "a": true, "ff0": true, "ff1": true}
	if len(cone) != len(want) {
		t.Fatalf("cone = %v", cone)
	}
	for _, v := range cone {
		if !want[c.Nodes[v].Name] {
			t.Fatalf("unexpected cone member %s", c.Nodes[v].Name)
		}
	}
	// The cone must NOT cross through ff0 to its own fan-in (ff2).
	ff0, _ := c.Index("ff0")
	cone0 := c.FaninCone(ff0)
	if len(cone0) != 2 { // ff0 + its driver ff2
		t.Fatalf("cone of ff0 = %v", cone0)
	}
	if c.FaninCone(-1) != nil {
		t.Fatal("out of range")
	}
}

func TestAllConeStats(t *testing.T) {
	c := pipeline(t)
	stats, err := c.AllConeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	// ff2 (id 2): 2 gates, 2 leaves (ff0, ff1), depth 2.
	s2 := stats[2]
	if s2.Gates != 2 || s2.Leaves != 2 || s2.Depth != 2 {
		t.Fatalf("ff2 cone = %+v", s2)
	}
	// ff0 (id 0): direct FF feed — 0 gates, 1 leaf, depth 0.
	s0 := stats[0]
	if s0.Gates != 0 || s0.Leaves != 1 || s0.Depth != 0 {
		t.Fatalf("ff0 cone = %+v", s0)
	}
}

func TestWriteDOT(t *testing.T) {
	c := pipeline(t)
	var b strings.Builder
	if err := WriteDOT(&b, c); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{"digraph \"pipe\"", "shape=box", "shape=ellipse", `"ff0" -> "a"`, "}"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
