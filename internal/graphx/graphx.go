// Package graphx provides the graph algorithms that the netlist, timing and
// placement packages share: topological ordering and level assignment of
// the combinational DAG, and undirected adjacency for FF placement.
package graphx

import "errors"

// ErrCycle is returned when a supposedly acyclic graph contains a cycle
// (e.g. a combinational loop in a netlist).
var ErrCycle = errors.New("graphx: graph contains a cycle")

// Digraph is a directed graph over vertices 0..N-1 with adjacency lists.
type Digraph struct {
	Adj [][]int
}

// NewDigraph creates a digraph with n vertices and no edges.
func NewDigraph(n int) *Digraph {
	return &Digraph{Adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return len(g.Adj) }

// AddEdge adds the directed edge u→v. It does not deduplicate.
func (g *Digraph) AddEdge(u, v int) {
	g.Adj[u] = append(g.Adj[u], v)
}

// InDegrees returns the in-degree of every vertex.
func (g *Digraph) InDegrees() []int {
	deg := make([]int, g.N())
	for _, a := range g.Adj {
		for _, v := range a {
			deg[v]++
		}
	}
	return deg
}

// TopoSort returns a topological order of the vertices (Kahn's algorithm),
// or ErrCycle when the graph is cyclic.
func (g *Digraph) TopoSort() ([]int, error) {
	deg := g.InDegrees()
	queue := make([]int, 0, g.N())
	for v, d := range deg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, g.N())
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Adj[v] {
			deg[w]--
			if deg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != g.N() {
		return nil, ErrCycle
	}
	return order, nil
}

// Levels assigns each vertex the length of the longest path from any source
// (in-degree-0 vertex) to it, i.e. its logic level. Returns ErrCycle for
// cyclic graphs.
func (g *Digraph) Levels() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	lvl := make([]int, g.N())
	for _, v := range order {
		for _, w := range g.Adj[v] {
			if lvl[v]+1 > lvl[w] {
				lvl[w] = lvl[v] + 1
			}
		}
	}
	return lvl, nil
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Digraph) HasCycle() bool {
	_, err := g.TopoSort()
	return err != nil
}

// Ugraph is an undirected graph over vertices 0..N-1, used for the FF
// adjacency that orders placement.
type Ugraph struct {
	Adj [][]int
}

// NewUgraph creates an undirected graph with n vertices.
func NewUgraph(n int) *Ugraph {
	return &Ugraph{Adj: make([][]int, n)}
}

// AddEdge adds the undirected edge {u, v}. Self-loops are ignored.
func (g *Ugraph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.Adj[u] = append(g.Adj[u], v)
	g.Adj[v] = append(g.Adj[v], u)
}
