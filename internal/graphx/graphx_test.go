package graphx

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestTopoSortLinear(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i, v := range order {
		if v != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, err := g.TopoSort(); err != ErrCycle {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if !g.HasCycle() {
		t.Fatal("HasCycle should be true")
	}
}

func TestTopoSortPropertyRandomDAG(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		n := 2 + rng.IntN(30)
		g := NewDigraph(n)
		// Edges only from lower to higher ids: always a DAG.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					g.AddEdge(u, v)
				}
			}
		}
		order, err := g.TopoSort()
		if err != nil || len(order) != n {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := range g.Adj {
			for _, v := range g.Adj[u] {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLevels(t *testing.T) {
	// Diamond: 0→1→3, 0→2→3, plus long path 0→1→2 makes 3 at level 3.
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 2)
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if lvl[i] != want[i] {
			t.Fatalf("levels = %v, want %v", lvl, want)
		}
	}
}

func TestLevelsCycle(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, err := g.Levels(); err != ErrCycle {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestInDegreesEdgeCount(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	deg := g.InDegrees()
	if deg[2] != 2 || deg[0] != 0 {
		t.Fatalf("deg = %v", deg)
	}
	if edges := deg[0] + deg[1] + deg[2]; edges != 2 {
		t.Fatalf("in-degrees sum to %d edges, want 2", edges)
	}
}

func TestUgraphSelfLoopIgnored(t *testing.T) {
	g := NewUgraph(2)
	g.AddEdge(0, 0)
	if len(g.Adj[0]) != 0 {
		t.Fatal("self loop should be ignored")
	}
}
