// Package ssta implements block-based statistical static timing analysis
// over the canonical delay model: per launch flip-flop, it propagates
// canonical arrival forms through the combinational DAG and extracts, for
// every reachable capture flip-flop, the canonical maximum and minimum
// register-to-register delay (the d̄ij and d_ij of the paper's constraints
// (1)–(2), with the launch clk→Q folded in). These canonical pair delays
// are what the Monte Carlo engine samples to emulate manufactured chips.
//
// Only register-to-register paths are modeled: the paper's tuning
// constraints are FF pairs, and port paths are unaffected by relative clock
// tuning between internal FFs.
//
// # Arenas and incrementality
//
// The analyzer is arena-backed: every Canonical.Sens it owns (per-node gate
// delays, per-pair results, per-worker arrival scratch) lives in one flat
// []float64 slab at the space's fixed dimension, and warm propagation
// writes through the variation In-to ops, so a PairDelays call after the
// first performs no heap allocations in the propagation itself. The pair
// *set* depends only on connectivity, never on delay values, so New
// precomputes the full pair skeleton once (which (launch, capture) arcs
// exist and which node's arrival each one reads); propagation merely
// refills a fixed-shape result arena. That same property makes incremental
// analysis exact: after a local delay edit, RepropagateCone re-runs only
// the launches whose cones contain an edited node and splices their pairs
// into the arena in place, byte-identical to a full PairDelays.
//
// Ownership contract: the []Pair returned by PairDelays and
// RepropagateCone, and every Canonical inside it, are views into
// analyzer-owned arenas. They are valid until the next propagation on the
// same Analyzer; callers that mutate delays and re-propagate while older
// results must stay frozen should Fork first. Propagation methods are not
// safe for concurrent use on one Analyzer (they parallelize internally);
// concurrent what-ifs each take their own Fork.
package ssta

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ckt"
	"repro/internal/variation"
)

// Pair is the canonical timing view of one launch→capture FF pair.
type Pair struct {
	Launch  int // FF id (index into Circuit.FFs())
	Capture int // FF id
	Max     variation.Canonical
	Min     variation.Canonical
}

// capArc is one precomputed skeleton arc of a launch: the capture FF and
// the node whose arrival form is the pair delay (the capture's D fan-in,
// or the launch node itself for a direct FF→FF connection).
type capArc struct {
	cap int32
	u   int32
}

// Analyzer caches everything needed to run per-launch propagations.
type Analyzer struct {
	C *ckt.Circuit
	M *variation.Model

	dim int // global source dimension of M.Space

	// Per-fork mutable state: node delays and the pair result arena.
	// gateDelay[i].Sens aliases delaySens[i*dim:(i+1)*dim]; pairs[p].Max/
	// Min.Sens alias pairSens. Fork deep-copies exactly these four.
	delaySens []float64
	gateDelay []variation.Canonical // per node: gate delay (DFF = clk→Q)
	pairSens  []float64
	pairs     []Pair
	prepared  bool // at least one full PairDelays has filled the arena

	// Immutable structure, shared across forks.
	order    []int                 // topological order of the comb graph
	topoPos  []int32               // node → position in order
	ffNodes  []int                 // FF id → node
	ffOfNode []int                 // node → FF id, −1 otherwise
	setup    []variation.Canonical // per FF id
	hold     []variation.Canonical // per FF id
	onPath   []bool                // gate lies on some launch→capture path
	launches []int32               // FF ids with at least one pair, ascending
	arcs     []capArc
	arcOff   []int32 // FF id → [arcOff[id], arcOff[id+1]) into arcs/pairs

	pool *sync.Pool // *scratch, shared across forks (sized, not valued)
	fan  *fanout    // multi-worker propagate state, per analyzer (nil until first use)
}

// New builds an analyzer, precomputing per-node canonical delays, the
// propagation order, the on-path node set, and the pair skeleton.
func New(c *ckt.Circuit, m *variation.Model) (*Analyzer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := c.CombGraph()
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("ssta: %w", err)
	}
	n := len(c.Nodes)
	dim := m.Space.Dim()
	a := &Analyzer{C: c, M: m, dim: dim, order: order}
	a.topoPos = make([]int32, n)
	for pos, v := range order {
		a.topoPos[v] = int32(pos)
	}
	a.delaySens = make([]float64, n*dim)
	a.gateDelay = make([]variation.Canonical, n)
	for i, nd := range c.Nodes {
		var d variation.Canonical
		switch nd.Kind {
		case ckt.DFF:
			d = m.ClkToQ(c, i)
		default:
			d, err = m.GateDelay(c, i)
			if err != nil {
				return nil, err
			}
		}
		a.gateDelay[i].Sens = a.delaySens[i*dim : (i+1)*dim : (i+1)*dim]
		variation.CopyInto(&a.gateDelay[i], d)
	}
	ffs := c.FFs()
	a.ffNodes = ffs
	a.ffOfNode = make([]int, n)
	for i := range a.ffOfNode {
		a.ffOfNode[i] = -1
	}
	a.setup = make([]variation.Canonical, len(ffs))
	a.hold = make([]variation.Canonical, len(ffs))
	for id, node := range ffs {
		a.ffOfNode[node] = id
		a.setup[id] = m.Setup(c, node)
		a.hold[id] = m.Hold(c, node)
	}
	a.buildOnPath()
	a.buildSkeleton()
	nff := len(ffs)
	a.pool = &sync.Pool{New: func() any { return newScratch(n, dim, nff) }}
	return a, nil
}

// buildOnPath marks every combinational gate lying on some launch→capture
// path, by reverse BFS from the capture D fan-ins. If a gate v is on-path
// and u→v is an edge with u a gate, u is on-path too, so restricting
// propagation to on-path gates preserves the exact arrival forms at every
// node a pair reads: the dropped nodes (outputs, gates feeding only
// outputs) were computed by the historical full-order propagation but
// never read. That is the soundness argument for the criticality pruning —
// it is a pure reachability reduction, never a value-based one, which is
// what keeps incremental results byte-identical to the full analysis.
func (a *Analyzer) buildOnPath() {
	c := a.C
	a.onPath = make([]bool, len(c.Nodes))
	var stack []int32
	push := func(u int) {
		if c.Nodes[u].Kind.IsGate() && !a.onPath[u] {
			a.onPath[u] = true
			stack = append(stack, int32(u))
		}
	}
	for _, fnode := range a.ffNodes {
		if fi := c.Nodes[fnode].Fanin; len(fi) > 0 {
			push(fi[0])
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range c.Nodes[v].Fanin {
			push(u)
		}
	}
}

// buildSkeleton precomputes the pair arcs per launch. The arc set is pure
// connectivity — which captures are reachable from which launches — so it
// is computed once here, giving the result arena a fixed shape and giving
// incremental repropagation stable splice offsets. Launches with no
// reachable capture are excluded from the propagation worklist entirely.
func (a *Analyzer) buildSkeleton() {
	c := a.C
	ffs := a.ffNodes
	n := len(c.Nodes)
	mark := make([]uint32, n)
	var queue []int32
	a.arcOff = make([]int32, len(ffs)+1)
	for id, launchNode := range ffs {
		epoch := uint32(id + 1)
		mark[launchNode] = epoch
		queue = queue[:0]
		for _, f := range c.Nodes[launchNode].Fanout {
			if a.onPath[f] && mark[f] != epoch {
				mark[f] = epoch
				queue = append(queue, int32(f))
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			for _, f := range c.Nodes[queue[qi]].Fanout {
				if a.onPath[f] && mark[f] != epoch {
					mark[f] = epoch
					queue = append(queue, int32(f))
				}
			}
		}
		for capID, capNode := range ffs {
			fi := c.Nodes[capNode].Fanin
			if len(fi) == 0 || mark[fi[0]] != epoch {
				continue
			}
			a.arcs = append(a.arcs, capArc{cap: int32(capID), u: int32(fi[0])})
		}
		a.arcOff[id+1] = int32(len(a.arcs))
		if a.arcOff[id+1] > a.arcOff[id] {
			a.launches = append(a.launches, int32(id))
		}
	}
	np := len(a.arcs)
	if np == 0 {
		return
	}
	a.pairSens = make([]float64, 2*np*a.dim)
	a.pairs = make([]Pair, np)
	for id := range ffs {
		for i := a.arcOff[id]; i < a.arcOff[id+1]; i++ {
			p := &a.pairs[i]
			p.Launch = id
			p.Capture = int(a.arcs[i].cap)
			lo := 2 * int(i) * a.dim
			p.Max.Sens = a.pairSens[lo : lo+a.dim : lo+a.dim]
			p.Min.Sens = a.pairSens[lo+a.dim : lo+2*a.dim : lo+2*a.dim]
		}
	}
}

// Setup returns the canonical setup time of FF id.
func (a *Analyzer) Setup(id int) variation.Canonical { return a.setup[id] }

// Hold returns the canonical hold time of FF id.
func (a *Analyzer) Hold(id int) variation.Canonical { return a.hold[id] }

// GateDelay returns the canonical delay of a node (clk→Q for DFFs). The
// returned form aliases the analyzer's delay arena; callers must not
// mutate it.
func (a *Analyzer) GateDelay(node int) variation.Canonical { return a.gateDelay[node] }

// AddDelay adds a deterministic delta (ps) to the nominal delay of a node
// — the what-if edit of a buffer insertion at the node's output, or a
// clk→Q shift for a DFF. Setup/hold forms are unaffected.
func (a *Analyzer) AddDelay(node int, deltaPS float64) {
	a.gateDelay[node].Mean += deltaPS
}

// scratch holds per-worker propagation state, pooled and reused across
// launches, calls, and forks. Arrival forms live in one slab; reached
// marks are epoch-stamped so a new launch costs one counter bump instead
// of an O(n) clear.
type scratch struct {
	slab   []float64
	arrMax []variation.Canonical
	arrMin []variation.Canonical
	mark   []uint32
	ffMark []uint32
	epoch  uint32
	keys   []int64 // packed (topoPos<<32 | node) cone of the current launch
	stack  []int32
	aff    []int32
}

func newScratch(n, dim, nff int) *scratch {
	sc := &scratch{
		slab:   make([]float64, 2*n*dim),
		arrMax: make([]variation.Canonical, n),
		arrMin: make([]variation.Canonical, n),
		mark:   make([]uint32, n),
		ffMark: make([]uint32, nff),
	}
	for i := 0; i < n; i++ {
		lo := 2 * i * dim
		sc.arrMax[i].Sens = sc.slab[lo : lo+dim : lo+dim]
		sc.arrMin[i].Sens = sc.slab[lo+dim : lo+2*dim : lo+2*dim]
	}
	return sc
}

// bump starts a new epoch; on uint32 wraparound the stamp arrays are
// cleared once so stale marks from 2³² epochs ago cannot alias.
func (sc *scratch) bump() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.mark)
		clear(sc.ffMark)
		sc.epoch = 1
	}
}

func (a *Analyzer) getScratch() *scratch { return a.pool.Get().(*scratch) }

// launchPass recomputes the pairs of one launch FF into the result arena:
// collect the on-path fanout cone (epoch-marked BFS), order it by
// topological position, propagate arrival forms through it in place, and
// refill the launch's pair slots. Allocation-free warm; the floating-point
// program is op-for-op the one the historical full-order propagation ran,
// restricted to the nodes whose values pairs actually read.
func (a *Analyzer) launchPass(ffid int32, sc *scratch) {
	c := a.C
	launchNode := a.ffNodes[ffid]
	sc.bump()
	epoch := sc.epoch
	sc.mark[launchNode] = epoch
	cq := a.gateDelay[launchNode]
	variation.CopyInto(&sc.arrMax[launchNode], cq)
	variation.CopyInto(&sc.arrMin[launchNode], cq)

	keys := sc.keys[:0]
	for _, f := range c.Nodes[launchNode].Fanout {
		if a.onPath[f] && sc.mark[f] != epoch {
			sc.mark[f] = epoch
			keys = append(keys, int64(a.topoPos[f])<<32|int64(f))
		}
	}
	for qi := 0; qi < len(keys); qi++ {
		v := int(uint32(keys[qi]))
		for _, f := range c.Nodes[v].Fanout {
			if a.onPath[f] && sc.mark[f] != epoch {
				sc.mark[f] = epoch
				keys = append(keys, int64(a.topoPos[f])<<32|int64(f))
			}
		}
	}
	sc.keys = keys
	// Packed keys sort by topo position; every marked fanin of a cone node
	// precedes it, so arrivals finalize in dependency order.
	slices.Sort(keys)
	for _, k := range keys {
		v := int(uint32(k))
		first := true
		for _, u := range c.Nodes[v].Fanin {
			if sc.mark[u] != epoch {
				continue
			}
			if first {
				variation.CopyInto(&sc.arrMax[v], sc.arrMax[u])
				variation.CopyInto(&sc.arrMin[v], sc.arrMin[u])
				first = false
			} else {
				variation.MaxInto(&sc.arrMax[v], sc.arrMax[v], sc.arrMax[u])
				variation.MinInto(&sc.arrMin[v], sc.arrMin[v], sc.arrMin[u])
			}
		}
		d := a.gateDelay[v]
		variation.AddInto(&sc.arrMax[v], sc.arrMax[v], d)
		variation.AddInto(&sc.arrMin[v], sc.arrMin[v], d)
	}
	for i := a.arcOff[ffid]; i < a.arcOff[ffid+1]; i++ {
		u := int(a.arcs[i].u)
		p := &a.pairs[i]
		variation.CopyInto(&p.Max, sc.arrMax[u])
		variation.CopyInto(&p.Min, sc.arrMin[u])
	}
}

// fanout is an analyzer's reusable multi-worker propagate state: the shared
// worklist cursor, the join, and a worker function bound once, so that
// starting the workers of a warm call allocates nothing.
type fanout struct {
	a    *Analyzer
	ids  []int32
	next atomic.Int64
	wg   sync.WaitGroup
	work func() // f.run, bound when the fanout is made
}

// run is one propagate worker: it claims worklist entries until none remain.
func (f *fanout) run() {
	defer f.wg.Done()
	sc := f.a.getScratch()
	defer f.a.pool.Put(sc)
	for {
		i := int(f.next.Add(1)) - 1
		if i >= len(f.ids) {
			return
		}
		f.a.launchPass(f.ids[i], sc)
	}
}

// propagate runs launchPass over the given FF ids, fanning out across CPU
// cores for larger worklists and staying inline (goroutine-free) for
// single-launch repropagations.
func (a *Analyzer) propagate(ids []int32) {
	if len(ids) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		sc := a.getScratch()
		for _, id := range ids {
			a.launchPass(id, sc)
		}
		a.pool.Put(sc)
		return
	}
	f := a.fan
	if f == nil {
		f = &fanout{a: a}
		f.work = f.run
		a.fan = f
	}
	f.ids = ids
	f.next.Store(0)
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go f.work()
	}
	f.wg.Wait()
	f.ids = nil
}

// PairDelays computes canonical pair delays for every launch FF, in
// parallel across CPU cores. The result is ordered by (launch, capture)
// and is a view into the analyzer's arena — see the package ownership
// contract.
//
//contract:allocfree
func (a *Analyzer) PairDelays() []Pair {
	a.propagate(a.launches)
	a.prepared = true
	return a.pairs
}

// RepropagateCone updates the pair arena after delay edits at the given
// nodes, re-running only the launches whose propagation cones contain an
// edited node (found by reverse reachability over on-path gates). The
// returned slice is the same full pair arena PairDelays returns, with the
// affected launches' entries recomputed — byte-identical to what a full
// PairDelays would produce, because per-launch propagation is a pure
// function of the delays in its cone and untouched launches' cones contain
// no edited node. Edits at nodes no pair can observe (inputs, outputs,
// off-path gates) are correctly ignored. Falls back to a full propagation
// if the arena has never been filled.
//
//contract:allocfree
func (a *Analyzer) RepropagateCone(nodes ...int) []Pair {
	if !a.prepared {
		return a.PairDelays()
	}
	c := a.C
	sc := a.getScratch()
	sc.bump()
	epoch := sc.epoch
	stack, aff := sc.stack[:0], sc.aff[:0]
	//lint:ignore contract:allocfree non-escaping closure, stack-allocated
	markLaunch := func(id int) {
		if a.arcOff[id] < a.arcOff[id+1] && sc.ffMark[id] != epoch {
			sc.ffMark[id] = epoch
			//lint:ignore contract:allocfree grows pooled scratch (sc.aff), amortized to zero once warm
			aff = append(aff, int32(id))
		}
	}
	for _, x := range nodes {
		if x < 0 || x >= len(c.Nodes) {
			//lint:ignore contract:allocfree cold panic path
			panic(fmt.Sprintf("ssta: RepropagateCone node %d out of range", x))
		}
		n := &c.Nodes[x]
		switch {
		case n.Kind == ckt.DFF:
			markLaunch(a.ffOfNode[x])
		case n.Kind.IsGate() && a.onPath[x]:
			if sc.mark[x] != epoch {
				sc.mark[x] = epoch
				//lint:ignore contract:allocfree grows pooled scratch (sc.stack), amortized to zero once warm
				stack = append(stack, int32(x))
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range c.Nodes[v].Fanin {
			un := &c.Nodes[u]
			switch {
			case un.Kind == ckt.DFF:
				markLaunch(a.ffOfNode[u])
			case un.Kind.IsGate() && sc.mark[u] != epoch:
				// u feeds an on-path gate, so u is on-path by construction.
				sc.mark[u] = epoch
				//lint:ignore contract:allocfree grows pooled scratch (sc.stack), amortized to zero once warm
				stack = append(stack, int32(u))
			}
		}
	}
	slices.Sort(aff)
	sc.stack = stack[:0]
	a.propagate(aff)
	sc.aff = aff[:0]
	a.pool.Put(sc)
	return a.pairs
}

// Fork returns an analyzer sharing this one's immutable structure (order,
// skeleton, on-path set, setup/hold, scratch pool) with an independent
// copy of the mutable delay and pair arenas. Edits and repropagations on
// the fork never disturb the parent — the mechanism behind concurrent
// what-if queries against a shared prepared benchmark.
func (a *Analyzer) Fork() *Analyzer {
	b := *a
	b.fan = nil // the fork propagates on its own arenas
	b.delaySens = slices.Clone(a.delaySens)
	b.gateDelay = slices.Clone(a.gateDelay)
	for i := range b.gateDelay {
		b.gateDelay[i].Sens = b.delaySens[i*b.dim : (i+1)*b.dim : (i+1)*b.dim]
	}
	b.pairSens = slices.Clone(a.pairSens)
	b.pairs = slices.Clone(a.pairs)
	for i := range b.pairs {
		lo := 2 * i * b.dim
		b.pairs[i].Max.Sens = b.pairSens[lo : lo+b.dim : lo+b.dim]
		b.pairs[i].Min.Sens = b.pairSens[lo+b.dim : lo+2*b.dim : lo+2*b.dim]
	}
	return &b
}

// ExactPairValue is a sampled (deterministic) pair delay, used by the exact
// gate-level Monte Carlo mode and by cross-validation tests.
type ExactPairValue struct {
	Launch, Capture int
	Max, Min        float64
}

// ExactPairDelays propagates concrete per-node delay values (delays[node];
// DFF entries are clk→Q) and returns per-pair max/min delays. This is the
// brute-force counterpart of PairDelays for one sampled chip, kept on the
// historical full-topo-order walk so it stays an independent oracle for
// the pruned/incremental canonical path.
func (a *Analyzer) ExactPairDelays(delays []float64) []ExactPairValue {
	c := a.C
	n := len(c.Nodes)
	arrMax := make([]float64, n)
	arrMin := make([]float64, n)
	reached := make([]bool, n)
	var out []ExactPairValue
	for launchID, launchNode := range c.FFs() {
		for i := range reached {
			reached[i] = false
		}
		reached[launchNode] = true
		arrMax[launchNode] = delays[launchNode]
		arrMin[launchNode] = delays[launchNode]
		for _, v := range a.order {
			nd := &c.Nodes[v]
			if nd.Kind == ckt.DFF || nd.Kind == ckt.Input {
				continue
			}
			first := true
			var mx, mn float64
			for _, u := range nd.Fanin {
				if !reached[u] {
					continue
				}
				if first {
					mx, mn = arrMax[u], arrMin[u]
					first = false
				} else {
					if arrMax[u] > mx {
						mx = arrMax[u]
					}
					if arrMin[u] < mn {
						mn = arrMin[u]
					}
				}
			}
			if first {
				continue
			}
			reached[v] = true
			arrMax[v] = mx + delays[v]
			arrMin[v] = mn + delays[v]
		}
		for capID, capNode := range c.FFs() {
			fi := c.Nodes[capNode].Fanin
			if len(fi) == 0 || !reached[fi[0]] {
				continue
			}
			out = append(out, ExactPairValue{
				Launch:  launchID,
				Capture: capID,
				Max:     arrMax[fi[0]],
				Min:     arrMin[fi[0]],
			})
		}
	}
	return out
}
