package insertion

import (
	"math"

	"repro/internal/diffcon"
	"repro/internal/lp"
)

// Exact support projection: the concentration step (19) without an ILP.
// Once countMin has decided a component's count nk, the concentration ILP
// minimizes Σ|x − center| over every assignment that tunes at most nk FFs.
// Each such assignment lives on some support of size exactly nk (a smaller
// one is infeasible), so the ILP's optimum is the least of the supports'
// projections: for one support S, the L1-nearest point to the centers of
// the system with S free in its windows and every other FF at x = 0.
//
// A pinned FF contributes the constant |center| to the objective. Rows
// with one endpoint in S become bounds on it, so with nk = 1 the
// projection is a clamp: the center into the window intersected with those
// bounds (step 1), or the grid index nearest the center's index within the
// intersected index range (step 2). With nk ≥ 2 it is an LP with 2·nk
// columns (x, and t ≥ |x − c|) and no binaries. Step 2 solves it in
// grid-index space: the bounds are the integer grid bounds gridFits uses
// and the centers are grid indices (gridCenters snaps them), so the
// difference rows form a transposed network matrix whose cells, cut at the
// integer centers, have integral vertices, and so has the optimum the
// simplex returns.

// tieTol is the relative objective tolerance within which two supports'
// projections tie: a tie goes to the larger Σx, then to the earlier
// support in countMin's order.
const tieTol = 1e-9

// project replaces the concentration ILP for the component whose rows
// walkRows listed (n FFs) and whose count nk countMin just decided: it
// enumerates the remaining size-nk supports in countMin's order, projects
// the centers onto each feasible one, and leaves the least-objective
// projection in s.xSol. When the support budget runs out it keeps the best
// projection so far. It reports false when a projection fails: an LP that
// is not optimal, or a step-2 grid index more than 1e-9 from an integer.
//
//contract:allocfree
func (s *sampleSolver) project(n int) bool {
	full := uint32(1)<<n - 1
	budget := s.nkBudget
	found := false
	var bestObj, bestSum float64
	for mask := s.nkMask; mask <= full; mask = nextSupport(mask) {
		if mask != s.nkMask {
			if budget--; budget < 0 {
				break
			}
			if !s.supportFeasible(n, mask) {
				continue
			}
		}
		if !s.projectSupport(n, mask) {
			return false
		}
		obj, sum := 0.0, 0.0
		for v, ff := range s.comp {
			obj += math.Abs(s.xCur[v] - s.center[ff])
			sum += s.xCur[v]
		}
		tol := tieTol * (1 + math.Abs(bestObj))
		if !found || obj < bestObj-tol ||
			(obj <= bestObj+tol && sum > bestSum+tieTol*(1+math.Abs(bestSum))) {
			found, bestObj, bestSum = true, obj, sum
			s.xBest = append(s.xBest[:0], s.xCur...)
		}
		if mask == 0 {
			break // nk = 0 has one support (a component with no violated row)
		}
	}
	s.xSol = append(s.xSol[:0], s.xBest...)
	return true
}

// projectSupport projects the centers onto support mask and writes the
// tuning of every component FF to s.xCur, 0 for pinned ones. The
// projection works in x in step 1 and in grid indices in step 2; s.xCur
// holds x either way.
func (s *sampleSolver) projectSupport(n int, mask uint32) bool {
	m := s.mapSupport(n, mask)
	// Window of each support variable, narrowed by every row whose other
	// endpoint is pinned, and its center.
	s.boxLo, s.boxHi, s.boxC = s.boxLo[:0], s.boxHi[:0], s.boxC[:0]
	for _, v := range s.supp {
		lo, hi, c := -s.spec.MaxRange, s.spec.MaxRange, s.center[s.comp[v]]
		if s.mode == modeFixed {
			lower := s.lower[s.comp[v]]
			lo, hi, c = 0, float64(s.spec.Steps), math.Round((c-lower)/s.spec.Step())
		}
		s.boxLo, s.boxHi, s.boxC = append(s.boxLo, lo), append(s.boxHi, hi), append(s.boxC, c)
	}
	for _, r := range s.rows {
		// Setup x_l − x_c ≤ setup, hold x_c − x_l ≤ hold, one side at 0.
		l, c := s.nodeOf(r.l), s.nodeOf(r.c)
		switch {
		case l != diffcon.Origin && c == diffcon.Origin:
			s.boxHi[l] = math.Min(s.boxHi[l], s.rowBound(r.setup, r.l, r.c, l, c))
			s.boxLo[l] = math.Max(s.boxLo[l], -s.rowBound(r.hold, r.c, r.l, c, l))
		case c != diffcon.Origin && l == diffcon.Origin:
			s.boxLo[c] = math.Max(s.boxLo[c], -s.rowBound(r.setup, r.l, r.c, l, c))
			s.boxHi[c] = math.Min(s.boxHi[c], s.rowBound(r.hold, r.c, r.l, c, l))
		}
	}
	for v := range s.supp {
		if s.boxLo[v] > s.boxHi[v] {
			return false
		}
	}
	// One free FF sits at its center clamped into its box; more take an
	// LP. Either way boxC ends up holding the projection.
	if m == 1 {
		s.boxC[0] = math.Max(s.boxLo[0], math.Min(s.boxHi[0], s.boxC[0]))
	} else if !s.projectLP() {
		return false
	}
	s.xCur = s.xCur[:0]
	for v, node := range s.node {
		if node == diffcon.Origin {
			s.xCur = append(s.xCur, 0)
			continue
		}
		x := s.boxC[node]
		if s.mode == modeFixed {
			if math.Abs(x-math.Round(x)) > 1e-9 {
				return false
			}
			ff := s.comp[v]
			x = s.lower[ff] + math.Round(x)*s.spec.Step()
		}
		s.xCur = append(s.xCur, x)
	}
	return true
}

// projectLP solves the nk ≥ 2 projection over the support mapSupport laid
// out, in the concentration ILP's own linearization: x_v in its box and
// t_v ≥ |x_v − c_v| (two rows, c the unclamped center), minimizing Σt under
// every row between two support FFs. Sharing the ILP's shape lets the
// simplex choose among a support's equally good points much as the
// branch-and-bound's relaxations do. On success boxC holds the solution.
func (s *sampleSolver) projectLP() bool {
	prob := &s.lpProb
	prob.Reset()
	for v := range s.supp {
		prob.AddVar(s.boxLo[v], s.boxHi[v], 0, "x") // column 2v
		prob.AddVar(0, lp.Inf, 1, "t")              // column 2v+1
	}
	for _, r := range s.rows {
		l, c := s.nodeOf(r.l), s.nodeOf(r.c)
		if l == diffcon.Origin || c == diffcon.Origin {
			continue // a bound (projectSupport) or a constant (supportFeasible)
		}
		prob.AddRow(lp.LE, s.rowBound(r.setup, r.l, r.c, l, c), lp.T(2*l, 1), lp.T(2*c, -1))
		prob.AddRow(lp.LE, s.rowBound(r.hold, r.c, r.l, c, l), lp.T(2*c, 1), lp.T(2*l, -1))
	}
	for v := range s.supp {
		prob.AddRow(lp.LE, s.boxC[v], lp.T(2*v, 1), lp.T(2*v+1, -1))
		prob.AddRow(lp.LE, -s.boxC[v], lp.T(2*v, -1), lp.T(2*v+1, -1))
	}
	sol, err := prob.SolveWS(&s.lpWS)
	if err != nil || sol.Status != lp.Optimal {
		return false
	}
	for v := range s.supp {
		s.boxC[v] = sol.X[2*v]
	}
	return true
}

// mapSupport lays out support mask of an n-FF component: s.node[v] is
// component index v's variable, or diffcon.Origin when v is pinned at 0,
// and s.supp lists the support's component indices in variable order.
// It returns the support size.
func (s *sampleSolver) mapSupport(n int, mask uint32) int {
	s.node, s.supp = s.node[:0], s.supp[:0]
	for v := 0; v < n; v++ {
		if mask&(1<<v) != 0 {
			s.node = append(s.node, len(s.supp))
			s.supp = append(s.supp, v)
		} else {
			s.node = append(s.node, diffcon.Origin)
		}
	}
	return len(s.supp)
}

// rowBound is the bound b of a row x_i − x_j ≤ b in the projection's
// variables: b itself in step 1, and the grid bound on k_i − k_j in step 2
// (gridFits' bound; a pinned endpoint counts as lower 0). i and j are
// the endpoints' component indices, ni and nj their variables.
func (s *sampleSolver) rowBound(b float64, i, j, ni, nj int) float64 {
	if s.mode == modeFloating {
		return b
	}
	return float64(s.gridBound(b - s.supportLower(i, ni) + s.supportLower(j, nj)))
}
