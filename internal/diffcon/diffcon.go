// Package diffcon solves systems of difference constraints xᵢ − xⱼ ≤ b via
// shortest paths (Bellman-Ford/SPFA). Setup and hold constraints with clock
// tuning buffers are exactly of this shape (paper (1)–(2)), and so are the
// buffer range windows (3) when expressed against a fixed origin. Over a
// uniform discrete tuning grid the floor-rounded integer system is *exactly*
// equivalent to the discrete feasibility question, which makes the
// 10⁴-sample yield evaluation cheap without any ILP calls.
package diffcon

import (
	"errors"
	"math"
)

// Origin is the pseudo-variable fixed at 0; pass it as j (or i) to Add to
// express upper (or lower) bounds on single variables.
const Origin = -1

// ErrInfeasible reports a negative cycle (no solution).
var ErrInfeasible = errors.New("diffcon: system infeasible")

// IntSystem is a difference-constraint system over integer variables —
// the discrete tuning grid. Feasibility over the integers with floor-rounded
// bounds is exactly the feasibility of the discrete buffer-tuning problem.
type IntSystem struct {
	n    int
	cons []intCon
}

type intCon struct {
	i, j int
	b    int64
}

// NewIntSystem creates an integer system over n variables.
func NewIntSystem(n int) *IntSystem {
	if n < 0 {
		panic("diffcon: negative variable count")
	}
	return &IntSystem{n: n}
}

// N returns the variable count.
func (s *IntSystem) N() int { return s.n }

// NumConstraints returns the number of constraints added.
func (s *IntSystem) NumConstraints() int { return len(s.cons) }

// Reset clears the system for reuse over n variables, retaining the
// constraint capacity — the hot-loop counterpart of NewIntSystem.
func (s *IntSystem) Reset(n int) {
	if n < 0 {
		panic("diffcon: negative variable count")
	}
	s.n = n
	s.cons = s.cons[:0]
}

// Truncate drops every constraint after the first m, restoring an earlier
// snapshot (taken with NumConstraints). Probe loops that share a fixed
// constraint prefix — e.g. the T-independent hold side of a period sweep —
// truncate back to the prefix instead of rebuilding it.
func (s *IntSystem) Truncate(m int) {
	if m < 0 || m > len(s.cons) {
		panic("diffcon: truncate length out of range")
	}
	s.cons = s.cons[:m]
}

// Add appends xᵢ − xⱼ ≤ b over the integers.
func (s *IntSystem) Add(i, j int, b int64) {
	if i == Origin && j == Origin {
		panic("diffcon: constraint between origin and itself")
	}
	s.checkVar(i)
	s.checkVar(j)
	s.cons = append(s.cons, intCon{i: i, j: j, b: b})
}

func (s *IntSystem) checkVar(v int) {
	if v != Origin && (v < 0 || v >= s.n) {
		panic("diffcon: variable out of range")
	}
}

// AddUpper appends xᵢ ≤ b.
func (s *IntSystem) AddUpper(i int, b int64) { s.Add(i, Origin, b) }

// AddLower appends xᵢ ≥ b.
func (s *IntSystem) AddLower(i int, b int64) { s.Add(Origin, i, -b) }

// GridBound converts a real bound xᵢ − xⱼ ≤ b into the integer bound for
// grid variables x = step·k: kᵢ − kⱼ ≤ floor(b/step). The tiny epsilon
// absorbs floating-point noise at exact grid multiples.
func GridBound(b, step float64) int64 {
	if step <= 0 {
		panic("diffcon: grid step must be positive")
	}
	return int64(math.Floor(b/step + 1e-9))
}

// Solve returns an integral solution with origin 0, or ErrInfeasible.
func (s *IntSystem) Solve() ([]int64, error) {
	var sv IntSolver
	return sv.SolveInto(nil, s)
}

// Feasible reports whether an integral solution exists.
func (s *IntSystem) Feasible() bool {
	var sv IntSolver
	return sv.Feasible(s)
}

// IntSolver is reusable SPFA (queue-based Bellman-Ford) scratch for
// IntSystem solves. The 10⁴-chip yield sweep answers one feasibility
// question per probe; routing them through one per-worker solver makes the
// steady state allocation-free. The zero value is ready to use; a solver
// must not be shared between goroutines.
type IntSolver struct {
	dist  []int64
	cnt   []int32 // edges on the current shortest path (cycle detection)
	inQ   []bool
	queue []int32 // ring buffer; holds at most one entry per node
	head  []int32 // per-node first edge index, −1 = none
	next  []int32 // edge → next edge of the same from-node
	eTo   []int32
	eW    []int64
}

func (sv *IntSolver) grow(total, m int) {
	if cap(sv.dist) < total {
		sv.dist = make([]int64, total)
		sv.cnt = make([]int32, total)
		sv.inQ = make([]bool, total)
		sv.queue = make([]int32, total)
		sv.head = make([]int32, total)
	}
	if cap(sv.eTo) < m {
		sv.next = make([]int32, m)
		sv.eTo = make([]int32, m)
		sv.eW = make([]int64, m)
	}
}

// Feasible reports whether s has a solution. Allocation-free once the
// solver's scratch has grown to the system's size.
func (sv *IntSolver) Feasible(s *IntSystem) bool {
	return sv.run(s) == nil
}

// SolveInto returns a solution with origin 0 appended to out[:0] (pass nil
// to allocate), or ErrInfeasible.
func (sv *IntSolver) SolveInto(out []int64, s *IntSystem) ([]int64, error) {
	if err := sv.run(s); err != nil {
		return nil, err
	}
	shift := sv.dist[s.n]
	out = out[:0]
	for v := 0; v < s.n; v++ {
		out = append(out, sv.dist[v]-shift)
	}
	return out, nil
}

// run computes shortest-path distances under a virtual source (all nodes
// start at 0), leaving them in sv.dist. A node whose shortest path reaches
// `total` edges witnesses a negative cycle: the system is infeasible.
func (sv *IntSolver) run(s *IntSystem) error {
	n := s.n
	org := n
	total := n + 1
	m := len(s.cons)
	sv.grow(total, m)
	dist, cnt, inQ := sv.dist[:total], sv.cnt[:total], sv.inQ[:total]
	queue, head := sv.queue[:total], sv.head[:total]
	next, eTo, eW := sv.next[:m], sv.eTo[:m], sv.eW[:m]
	for v := 0; v < total; v++ {
		dist[v] = 0
		cnt[v] = 0
		inQ[v] = true
		queue[v] = int32(v)
		head[v] = -1
	}
	// Constraint xi − xj ≤ b is edge j → i with weight b.
	for c := range s.cons {
		f, t := s.cons[c].j, s.cons[c].i
		if f == Origin {
			f = org
		}
		if t == Origin {
			t = org
		}
		eTo[c] = int32(t)
		eW[c] = s.cons[c].b
		next[c] = head[f]
		head[f] = int32(c)
	}
	qh, qn := 0, total // ring head and occupancy; tail = (qh+qn) mod total
	for qn > 0 {
		u := queue[qh]
		qh++
		if qh == total {
			qh = 0
		}
		qn--
		inQ[u] = false
		du := dist[u]
		for e := head[u]; e >= 0; e = next[e] {
			to := eTo[e]
			if nd := du + eW[e]; nd < dist[to] {
				dist[to] = nd
				cnt[to] = cnt[u] + 1
				if cnt[to] >= int32(total) {
					return ErrInfeasible
				}
				if !inQ[to] {
					tail := qh + qn
					if tail >= total {
						tail -= total
					}
					queue[tail] = to
					qn++
					inQ[to] = true
				}
			}
		}
	}
	return nil
}

// Check verifies an integral assignment (origin 0) against all constraints.
func (s *IntSystem) Check(x []int64) (ok bool) {
	val := func(v int) int64 {
		if v == Origin {
			return 0
		}
		return x[v]
	}
	for _, c := range s.cons {
		if val(c.i)-val(c.j) > c.b {
			return false
		}
	}
	return true
}
