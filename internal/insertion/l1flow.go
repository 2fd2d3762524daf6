package insertion

import "math"

// l1Flow solves the L1 projection of an nk ≥ 2 support exactly:
//
//	min Σ_v |x_v − c_v|  subject to  x_j − x_i ≤ w_ij  (arcs i→j),
//
// over variables 0..m−1, with node m the origin, x_m = 0. Its dual is a
// min-cost circulation on the m+1 nodes: every bound is an uncapacitated
// arc i→j of cost w_ij (a box gives the two arcs between a variable and
// the origin), and every |x_v − c_v| term is a center arc between the
// origin and v carrying between −1 and +1 units at cost c_v per unit
// origin → v. The optimal points are the potentials of the optimal
// residual graph, so reading x_v = −dist(v → origin) off it gives the
// componentwise-least optimal point. The minimizers of a separable convex
// objective over difference constraints are closed under componentwise
// min, so that point is unique: the choice among a support's optima is a
// rule, not an artifact of the method.
//
// The circulation is found by successive shortest paths. Potentials start
// at a Bellman-Ford point of the bound arcs, so every bound arc has a
// non-negative reduced cost; each center arc is then saturated in the
// direction its reduced cost is negative, which leaves at most m units of
// excess, and each shortest path (Bellman-Ford over the reduced costs)
// moves one of them to a deficit. There is no failure: every node reaches
// the origin through its box arcs, and reduced costs that rounding leaves a
// hair below zero are read as 0. In step 2 every cost is a small integer,
// so every sum is exact and so is the point.
//
// The graph is dense, (m+1)² arcs at most, one per ordered node pair:
// bound keeps the tightest of parallel bounds.
type l1Flow struct {
	m    int
	w    []float64 // w[i*(m+1)+j]: cost of bound arc i→j (+Inf: none)
	flow []int     // units on bound arc i→j
	tilt []int     // per variable: units on its center arc, origin → v
	exc  []int     // per node: inflow less outflow
	pot  []float64 // per node: a feasible potential of the residual graph
	dist []float64 // per node: shortest-path distance
	pred []int     // per node: predecessor on the shortest path
	red  []float64 // reduced cost of residual arc i→j, clamped at 0 (+Inf: none)
	kind []int8    // which arc red[i*(m+1)+j] is
}

// Residual arc kinds.
const (
	arcNone  int8 = iota
	arcBound      // bound arc i→j, forward
	arcBack       // bound arc j→i with flow, backward
	arcTilt       // the center arc between the origin and a variable
)

// reset clears the solver for m variables and no bounds.
//
//contract:allocfree
func (f *l1Flow) reset(m int) {
	f.m = m
	f.w, f.flow = f.w[:0], f.flow[:0]
	for i := 0; i < (m+1)*(m+1); i++ {
		f.w = append(f.w, math.Inf(1))
		f.flow = append(f.flow, 0)
	}
}

// bound adds x_i − x_j ≤ b (node m is the origin): bound arc j→i.
func (f *l1Flow) bound(i, j int, b float64) {
	a := j*(f.m+1) + i
	f.w[a] = math.Min(f.w[a], b)
}

// solve projects the centers c (one per variable) onto the bounds added
// since reset and overwrites c with the componentwise-least optimal point.
// The bounds must be feasible.
//
//contract:allocfree
func (f *l1Flow) solve(c []float64) {
	m, nn := f.m, f.m+1
	// A Bellman-Ford point of the bound arcs, from a virtual source.
	f.resetDist(-1)
	f.relax(f.w, false)
	f.pot, f.exc = append(f.pot[:0], f.dist...), f.exc[:0]
	for i := 0; i < nn; i++ {
		f.exc = append(f.exc, 0)
	}
	// Saturate each center arc whose reduced cost is negative.
	f.tilt = f.tilt[:0]
	for v := 0; v < m; v++ {
		t := 0
		switch d := f.pot[v] - f.pot[m]; {
		case d > c[v]:
			t = 1
		case d < c[v]:
			t = -1
		}
		f.tilt = append(f.tilt, t)
		f.exc[v] += t
		f.exc[m] -= t
	}
	for {
		src := -1
		for v := 0; v < nn && src < 0; v++ {
			if f.exc[v] > 0 {
				src = v
			}
		}
		if src < 0 {
			break
		}
		f.residual(c)
		f.resetDist(src)
		f.relax(f.red, false)
		dst := -1
		for v := 0; v < nn; v++ {
			if f.exc[v] < 0 && (dst < 0 || f.dist[v] < f.dist[dst]) {
				dst = v
			}
		}
		for v := range f.pot {
			f.pot[v] += f.dist[v]
		}
		for j := dst; j != src; j = f.pred[j] {
			f.push(f.pred[j], j)
		}
		f.exc[src]--
		f.exc[dst]++
	}
	// x_v = −dist(v → origin) = pot_v − pot_m − (reduced distance).
	f.residual(c)
	f.resetDist(m)
	f.relax(f.red, true)
	for v := 0; v < m; v++ {
		c[v] = f.pot[v] - f.pot[m] - f.dist[v]
	}
}

// residual lays out the residual graph of the current flow: for each
// ordered pair the cheapest residual arc, backward flow first on a tie,
// then the center arc, then the bound arc, and its reduced cost under pot.
func (f *l1Flow) residual(c []float64) {
	m, nn := f.m, f.m+1
	f.red, f.kind = f.red[:0], f.kind[:0]
	for i := 0; i < nn; i++ {
		for j := 0; j < nn; j++ {
			cost, kind := math.Inf(1), arcNone
			if f.flow[j*nn+i] > 0 {
				cost, kind = -f.w[j*nn+i], arcBack
			}
			if i == m && j < m && f.tilt[j] < 1 && c[j] < cost {
				cost, kind = c[j], arcTilt
			}
			if j == m && i < m && f.tilt[i] > -1 && -c[i] < cost {
				cost, kind = -c[i], arcTilt
			}
			if f.w[i*nn+j] < cost {
				cost, kind = f.w[i*nn+j], arcBound
			}
			if kind != arcNone {
				cost = math.Max(0, cost+f.pot[i]-f.pot[j])
			}
			f.red = append(f.red, cost)
			f.kind = append(f.kind, kind)
		}
	}
}

// push moves one unit along residual arc i→j.
func (f *l1Flow) push(i, j int) {
	nn := f.m + 1
	switch f.kind[i*nn+j] {
	case arcBound:
		f.flow[i*nn+j]++
	case arcBack:
		f.flow[j*nn+i]--
	case arcTilt:
		if i == f.m {
			f.tilt[j]++
		} else {
			f.tilt[i]--
		}
	}
}

// relax runs Bellman-Ford over the dense cost matrix from the current
// dist. Forward it lowers dist[j] through each arc i→j and records pred:
// distances from a root. Reverse it lowers dist[i] through each arc i→j:
// distances to a root. It stops at the first round that changes nothing;
// with no negative cycle that is within m+1 rounds, and pred is a tree.
func (f *l1Flow) relax(cost []float64, reverse bool) {
	nn := f.m + 1
	for round := 0; round < nn; round++ {
		changed := false
		for i := 0; i < nn; i++ {
			for j := 0; j < nn; j++ {
				a := cost[i*nn+j]
				if reverse {
					if d := a + f.dist[j]; d < f.dist[i] {
						f.dist[i] = d
						changed = true
					}
				} else if d := f.dist[i] + a; d < f.dist[j] {
					f.dist[j], f.pred[j] = d, i
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// resetDist sets pred to −1 and dist to +Inf except 0 at root, or to 0
// everywhere when root is −1: a virtual source with a zero arc to every
// node.
func (f *l1Flow) resetDist(root int) {
	d := math.Inf(1)
	if root < 0 {
		d = 0
	}
	f.dist, f.pred = f.dist[:0], f.pred[:0]
	for i := 0; i <= f.m; i++ {
		f.dist = append(f.dist, d)
		f.pred = append(f.pred, -1)
	}
	if root >= 0 {
		f.dist[root] = 0
	}
}
