package insertion

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/lp"
)

// l1Case is a decoded FuzzL1Flow input: an m-variable projection problem
// (node m the origin) built feasible around a planted point.
type l1Case struct {
	m      int
	grid   bool // step-2 data: integer bounds and centers
	lo, hi []float64
	c      []float64
	rows   []l1Row // x_i − x_j ≤ b, i or j may be the origin
}

type l1Row struct {
	i, j int
	b    float64
}

// decodeL1Case reads one projection problem from fuzz bytes. Byte 0 picks
// m (2..6) and the mode. Four bytes per variable then pick a planted point
// x0, the box's slack below and above it, and the center; each 4-byte
// record after that adds a row x_i − x_j ≤ x0_i − x0_j + slack. Step-1
// data put x0 on a 0.25 ps grid (so the differences are exact) and read a
// slack byte with the high bit set as a hairline of under 1.3e-7; step-2
// data are grid indices in [0, 10], with rows clamped to ±11 as gridBound
// clamps them. The planted point satisfies every row and box, so the
// system is feasible, as project's callers guarantee.
func decodeL1Case(data []byte) *l1Case {
	if len(data) < 1 {
		return nil
	}
	m := 2 + int(data[0])%5
	if len(data) < 1+4*m {
		return nil
	}
	tc := &l1Case{m: m, grid: data[0]&0x80 != 0}
	const steps = 10
	slack := func(b byte) float64 {
		if tc.grid {
			return float64(b % 4)
		}
		if b&0x80 != 0 {
			return float64(b&0x7f) * 1e-9
		}
		return float64(b) / 4
	}
	x0 := make([]float64, m+1)
	for v := 0; v < m; v++ {
		b := data[1+4*v : 5+4*v]
		if tc.grid {
			x0[v] = float64(int(b[0]) % (steps + 1))
			tc.lo = append(tc.lo, math.Max(0, x0[v]-slack(b[1])))
			tc.hi = append(tc.hi, math.Min(steps, x0[v]+slack(b[2])))
			tc.c = append(tc.c, float64(int(b[3])%15-2))
			continue
		}
		x0[v] = float64(int8(b[0])) / 4
		tc.lo = append(tc.lo, x0[v]-slack(b[1]))
		tc.hi = append(tc.hi, x0[v]+slack(b[2]))
		tc.c = append(tc.c, float64(int8(b[3]))/3)
	}
	for b := data[1+4*m:]; len(b) >= 4 && len(tc.rows) < 24; b = b[4:] {
		i, j := int(b[0])%(m+1), int(b[1])%(m+1)
		if i == j {
			continue
		}
		bound := x0[i] - x0[j] + slack(b[2])
		if tc.grid {
			bound = math.Min(bound, steps+1)
		}
		if b[3]&1 != 0 && !tc.grid {
			bound = x0[i] - x0[j] // tight at the planted point
		}
		tc.rows = append(tc.rows, l1Row{i, j, bound})
	}
	return tc
}

// project runs l1Flow on the case and returns the point.
func (tc *l1Case) project(f *l1Flow) []float64 {
	f.reset(tc.m)
	for v := 0; v < tc.m; v++ {
		f.bound(v, tc.m, tc.hi[v])
		f.bound(tc.m, v, -tc.lo[v])
	}
	for _, r := range tc.rows {
		f.bound(r.i, r.j, r.b)
	}
	x := append([]float64(nil), tc.c...)
	f.solve(x)
	return x
}

// cost is the cost of the solver's final circulation for centers c:
// Σ w·flow over the bound arcs plus Σ c_v·tilt_v. Minus it is the optimum
// of the projection.
func (f *l1Flow) cost(c []float64) float64 {
	cost := 0.0
	for a, units := range f.flow {
		if units != 0 {
			cost += f.w[a] * float64(units)
		}
	}
	for v, t := range f.tilt {
		cost += c[v] * float64(t)
	}
	return cost
}

// objective is Σ|x − c|.
func (tc *l1Case) objective(x []float64) float64 {
	obj := 0.0
	for v, xv := range x {
		obj += math.Abs(xv - tc.c[v])
	}
	return obj
}

// lpProblem builds the projection as an LP in the concentration ILP's
// linearization (x in its box, t ≥ |x − c|, columns 2v and 2v+1), with the
// objective Σt, or x_least alone under Σt ≤ cap when least ≥ 0.
func (tc *l1Case) lpProblem(least int, cap float64) *lp.Problem {
	p := lp.NewProblem()
	for v := 0; v < tc.m; v++ {
		obj := 1.0
		if least >= 0 {
			obj = 0
		}
		p.AddVar(tc.lo[v], tc.hi[v], 0, "x")
		p.AddVar(0, lp.Inf, obj, "t")
		p.AddRow(lp.LE, tc.c[v], lp.T(2*v, 1), lp.T(2*v+1, -1))
		p.AddRow(lp.LE, -tc.c[v], lp.T(2*v, -1), lp.T(2*v+1, -1))
	}
	for _, r := range tc.rows {
		switch {
		case r.j == tc.m:
			p.AddRow(lp.LE, r.b, lp.T(2*r.i, 1))
		case r.i == tc.m:
			p.AddRow(lp.LE, r.b, lp.T(2*r.j, -1))
		default:
			p.AddRow(lp.LE, r.b, lp.T(2*r.i, 1), lp.T(2*r.j, -1))
		}
	}
	if least >= 0 {
		p.SetObj(2*least, 1)
		var sum []lp.Term
		for v := 0; v < tc.m; v++ {
			sum = append(sum, lp.T(2*v+1, 1))
		}
		p.AddRow(lp.LE, cap, sum...)
	}
	return p
}

// FuzzL1Flow checks l1Flow against the simplex on random supports of 2–6
// variables, step-1 data with hairline rows and step-2 grid data. The
// point satisfies every row and box (exactly in step 2, within 1e-9 in
// step 1) and is integral in step 2. Its objective is optimal within
// tol = 1e-9·(1 + obj): it equals minus the cost of the final circulation
// (weak duality makes that a certificate), and it is no worse than the LP
// optimum. The simplex is the weaker side of that comparison: on hairline
// rows its 1e-9 tolerances let it stop a little above the optimum. And the point is componentwise least: for each v, the LP min
// x_v over the points within tol of the optimum is no lower than x_v by
// more than 2·tol.
func FuzzL1Flow(f *testing.F) {
	// Two variables, one setup row, centers off the boxes.
	f.Add([]byte{0, 0, 40, 40, 30, 8, 40, 40, 0xE2, 0, 1, 0, 0})
	// The same on the grid.
	f.Add([]byte{0x80, 5, 2, 2, 0, 3, 3, 1, 14, 0, 1, 0, 0})
	// Three variables in a tight chain with hairline slacks and a row to
	// the origin: a face of optima.
	f.Add([]byte{1, 4, 0x81, 0x90, 20, 8, 0x85, 0x82, 20, 12, 0x80, 0x80, 20,
		0, 1, 0x81, 0, 1, 2, 0x83, 1, 2, 3, 0, 0, 2, 0, 0x82, 1})
	// Five variables on the grid, every pair bound.
	f.Add([]byte{0x83, 0, 3, 3, 12, 10, 3, 3, 0, 5, 3, 3, 7, 2, 1, 1, 14, 8, 0, 3, 1,
		0, 1, 0, 0, 1, 2, 1, 0, 2, 3, 0, 0, 3, 4, 2, 0, 4, 0, 1, 0, 5, 2, 0, 0})
	// Six variables with equal centers: every optimum ties.
	f.Add([]byte{4, 0, 40, 40, 9, 4, 40, 40, 9, 8, 40, 40, 9, 12, 40, 40, 9, 16, 40, 40, 9,
		20, 40, 40, 9, 0, 1, 0, 0, 1, 2, 0, 1, 2, 3, 0, 0, 3, 4, 0, 1, 4, 5, 0, 0})
	var fl l1Flow
	f.Fuzz(func(t *testing.T, data []byte) {
		tc := decodeL1Case(data)
		if tc == nil {
			return
		}
		x := tc.project(&fl)
		obj := tc.objective(x)
		tol := 1e-9 * (1 + obj)
		if dual := fl.cost(tc.c); math.Abs(obj+dual) > tol {
			t.Fatalf("objective %v at %v, but the circulation costs %v", obj, x, dual)
		}
		sol, err := tc.lpProblem(-1, 0).Solve()
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("LP status %v err %v on a feasible case", sol.Status, err)
		}
		if obj > sol.Obj+tol {
			t.Fatalf("objective %v at %v, LP optimum %v at %v", obj, x, sol.Obj, sol.X)
		}
		slack := 1e-9
		if tc.grid {
			slack = 0
		}
		at := func(v int) float64 {
			if v == tc.m {
				return 0
			}
			return x[v]
		}
		for _, r := range tc.rows {
			if at(r.i)-at(r.j) > r.b+slack {
				t.Fatalf("x = %v misses row x%d − x%d ≤ %v", x, r.i, r.j, r.b)
			}
		}
		for v, xv := range x {
			if xv < tc.lo[v]-slack || xv > tc.hi[v]+slack {
				t.Fatalf("x%d = %v outside [%v, %v]", v, xv, tc.lo[v], tc.hi[v])
			}
			if tc.grid && xv != math.Round(xv) {
				t.Fatalf("x%d = %v off the grid", v, xv)
			}
		}
		for v := range x {
			low, err := tc.lpProblem(v, obj+tol).Solve()
			if err != nil || low.Status != lp.Optimal {
				t.Fatalf("least-x%d LP status %v err %v", v, low.Status, err)
			}
			// An objective slack of tol lets x_v drop by up to tol: moving
			// along an edge of the optimal face's neighbors costs at least
			// 1 per unit (the constraint matrix is totally unimodular).
			if x[v] > low.Obj+2*tol {
				t.Fatalf("x = %v is not least: an optimum has x%d = %v", x, v, low.Obj)
			}
		}
	})
}

// loadProjections reads testdata/projections.jsonl: nk ≥ 2 projections the
// plan equivalence panel's flow solved (every 8th with nk = 2, every 2nd
// with nk = 3, every one with nk = 4), one JSON object a line with the
// support size M, the mode, the centers C and every bound x_I − x_J ≤ B
// (index M is the origin) as the flow solver received them.
func loadProjections(tb testing.TB) []*l1Case {
	fh, err := os.Open("testdata/projections.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	defer fh.Close()
	var cases []*l1Case
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		var rec struct {
			M    int
			Grid bool
			C    []float64
			Rows []struct {
				I, J int
				B    float64
			}
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			tb.Fatal(err)
		}
		tc := &l1Case{m: rec.M, grid: rec.Grid, c: rec.C}
		for v := 0; v < rec.M; v++ {
			tc.lo, tc.hi = append(tc.lo, math.Inf(-1)), append(tc.hi, math.Inf(1))
		}
		for _, r := range rec.Rows {
			switch {
			case r.J == rec.M:
				tc.hi[r.I] = math.Min(tc.hi[r.I], r.B)
			case r.I == rec.M:
				tc.lo[r.J] = math.Max(tc.lo[r.J], -r.B)
			default:
				tc.rows = append(tc.rows, l1Row{r.I, r.J, r.B})
			}
		}
		cases = append(cases, tc)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return cases
}

// TestProjectionsMatchLP checks the flow against the simplex on the
// recorded panel projections: equal objectives within 1e-9·(1 + obj).
func TestProjectionsMatchLP(t *testing.T) {
	var fl l1Flow
	for k, tc := range loadProjections(t) {
		obj := tc.objective(tc.project(&fl))
		sol, err := tc.lpProblem(-1, 0).Solve()
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("projection %d: LP status %v err %v", k, sol.Status, err)
		}
		if math.Abs(obj-sol.Obj) > 1e-9*(1+obj) {
			t.Fatalf("projection %d: flow objective %v, LP %v", k, obj, sol.Obj)
		}
	}
}

// BenchmarkProjection times one warm nk ≥ 2 support projection on the
// recorded panel projections, per support size: the flow solver, and the
// simplex on the concentration ILP's x/t layout (a column x in its box and
// a column t ≥ |x − c| per variable; the rows between variables, then the
// abs rows), reusing its Problem and Workspace as a per-sample solver would.
func BenchmarkProjection(b *testing.B) {
	cases := loadProjections(b)
	for nk := 2; nk <= 4; nk++ {
		var set []*l1Case
		for _, tc := range cases {
			if tc.m == nk {
				set = append(set, tc)
			}
		}
		x := make([]float64, nk)
		b.Run(fmt.Sprintf("nk=%d/flow", nk), func(b *testing.B) {
			var fl l1Flow
			for i := 0; i < b.N; i++ {
				tc := set[i%len(set)]
				fl.reset(tc.m)
				for v := 0; v < tc.m; v++ {
					fl.bound(v, tc.m, tc.hi[v])
					fl.bound(tc.m, v, -tc.lo[v])
				}
				for _, r := range tc.rows {
					fl.bound(r.i, r.j, r.b)
				}
				copy(x, tc.c)
				fl.solve(x)
			}
		})
		b.Run(fmt.Sprintf("nk=%d/lp", nk), func(b *testing.B) {
			var p lp.Problem
			var ws lp.Workspace
			for i := 0; i < b.N; i++ {
				tc := set[i%len(set)]
				p.Reset()
				for v := 0; v < tc.m; v++ {
					p.AddVar(tc.lo[v], tc.hi[v], 0, "x")
					p.AddVar(0, lp.Inf, 1, "t")
				}
				for _, r := range tc.rows {
					p.AddRow(lp.LE, r.b, lp.T(2*r.i, 1), lp.T(2*r.j, -1))
				}
				for v := 0; v < tc.m; v++ {
					p.AddRow(lp.LE, tc.c[v], lp.T(2*v, 1), lp.T(2*v+1, -1))
					p.AddRow(lp.LE, -tc.c[v], lp.T(2*v, -1), lp.T(2*v+1, -1))
				}
				if sol, err := p.SolveWS(&ws); err != nil || sol.Status != lp.Optimal {
					b.Fatalf("LP status %v err %v", sol.Status, err)
				}
			}
		})
	}
}
