package ckt

import (
	"fmt"
	"io"
	"sort"
)

// FaninCone returns the set of nodes in the combinational fan-in cone of a
// flip-flop's D pin (or any node): every gate on some combinational path
// into it, stopping at flip-flop Q outputs and primary inputs (which are
// included as the cone's leaves). The result is sorted by node index.
func (c *Circuit) FaninCone(node int) []int {
	if node < 0 || node >= len(c.Nodes) {
		return nil
	}
	seen := map[int]bool{node: true}
	stack := []int{node}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v != node && (c.Nodes[v].Kind == DFF || c.Nodes[v].Kind == Input) {
			continue // leaves: do not cross sequential/port boundaries
		}
		for _, u := range c.Nodes[v].Fanin {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// ConeStats describes one capture flip-flop's input cone.
type ConeStats struct {
	FF     int // FF id
	Gates  int // combinational gates in the cone
	Leaves int // distinct launch FFs + PIs feeding the cone
	Depth  int // longest gate path from any leaf to the D pin
}

// AllConeStats returns the input-cone statistics of every flip-flop,
// ordered by FF id. Useful for understanding why some register pairs are
// much more critical than others.
func (c *Circuit) AllConeStats() ([]ConeStats, error) {
	lvl, err := c.CombGraph().Levels()
	if err != nil {
		return nil, err
	}
	out := make([]ConeStats, 0, c.NumFFs())
	for id, ffNode := range c.FFs() {
		cone := c.FaninCone(ffNode)
		st := ConeStats{FF: id}
		for _, v := range cone {
			switch {
			case v == ffNode:
			case c.Nodes[v].Kind == DFF || c.Nodes[v].Kind == Input:
				st.Leaves++
			case c.Nodes[v].Kind.IsGate():
				st.Gates++
			}
		}
		if len(c.Nodes[ffNode].Fanin) == 1 {
			st.Depth = lvl[c.Nodes[ffNode].Fanin[0]]
		}
		out = append(out, st)
	}
	return out, nil
}

// WriteDOT renders the netlist in Graphviz DOT format: flip-flops as
// boxes, gates as ellipses, ports as diamonds. Intended for small circuits
// (documentation figures, debugging).
func WriteDOT(w io.Writer, c *Circuit) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n", c.Name); err != nil {
		return err
	}
	for _, n := range c.Nodes {
		shape := "ellipse"
		switch n.Kind {
		case DFF:
			shape = "box"
		case Input, Output:
			shape = "diamond"
		}
		if _, err := fmt.Fprintf(w, "  %q [shape=%s,label=\"%s\\n%s\"];\n", n.Name, shape, n.Name, n.Kind); err != nil {
			return err
		}
	}
	for _, n := range c.Nodes {
		for _, u := range n.Fanin {
			if _, err := fmt.Fprintf(w, "  %q -> %q;\n", c.Nodes[u].Name, n.Name); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
