// Package maxflow computes maximum flows and minimum cuts on the flow
// networks of package flowgraph (paper §5, §6.1).
//
// The one algorithm is Dinic's, which is near linear on the shallow,
// layered graphs that collapsed executions produce. The paper's answer to
// the cost of general max-flow is to collapse the graph (§5.2), not to
// pick another algorithm; Certify checks any answer by duality.
//
// A Solver owns the residual network and the scratch buffers and reuses
// them across Solve calls on one layout (the per-class view solves of a
// class graph). The engine gives each run its own Solver, so nothing
// sized by a graph outlives the run that solved it. Solve runs on the graph's series–parallel-reduced layout
// (flowgraph.CSR) and reports flow and cut on the graph itself; Certify
// checks such an answer; Compute is the one-shot convenience wrapper over
// a Graph.
package maxflow

import (
	"math"

	"flowcheck/internal/flowgraph"
)

// Result holds a computed maximum flow and its minimum cut. It is
// self-contained: it does not reference solver scratch buffers, so it stays
// valid after the solver moves on to other graphs.
type Result struct {
	// Flow is the value of the maximum flow from Source to Sink, in bits.
	Flow int64
	// EdgeFlow[i] is the flow routed through graph edge i.
	EdgeFlow []int64

	cut *Cut
}

// network is the residual representation over a flowgraph.CSR: each arc a
// of the reduced network is arc 2a (forward) and 2a+1 (backward); the
// topology arrays (hstart, harcs, to) alias the CSR — zero-copy — and only
// resid, the one array the solve mutates, is owned by the solver and
// reused across attaches.
type network struct {
	n      int
	hstart []int32
	harcs  []int32
	to     []int32
	resid  []int64
}

func (net *network) arcs(v int32) []int32 {
	return net.harcs[net.hstart[v]:net.hstart[v+1]]
}

// attach points the network at a CSR and initializes residuals from the
// chain capacities: arc a's forward residual starts at the sum of its
// chains' capacities, its reverse at 0. The CSR must stay unmodified for
// the duration of the solve.
func (net *network) attach(c *flowgraph.CSR, chainCap []int64) {
	net.n = c.N
	net.hstart = c.HStart
	net.harcs = c.HArcs
	net.to = c.To
	resid := i64n(net.resid, len(c.To))
	clear(resid)
	for ch, a := range c.ChainArc {
		// Saturate rather than wrap: only a sum past 2^63 is affected,
		// and no flow of that size can cross the arc anyway.
		if sum := resid[2*a] + chainCap[ch]; sum >= 0 {
			resid[2*a] = sum
		} else {
			resid[2*a] = math.MaxInt64
		}
	}
	net.resid = resid
}

// Solver computes maximum flows with reusable buffers: the residual network
// and all scratch persist across Solve calls. A Solver is not safe for
// concurrent use; pooled analysis sessions hold one each.
type Solver struct {
	net network

	// Work accounting for Solve: spent counts the layout's graph edges
	// plus arc examinations, limit is the budget (0 = unlimited),
	// exhausted records an aborted solve.
	spent     int64
	limit     int64
	exhausted bool

	// Dinic scratch: BFS levels, per-node arc cursors, and the BFS queue
	// (reach reuses it as its DFS stack).
	level []int32
	iter  []int32
	queue []int32

	// Result mapping scratch: residual reachability over the reduced
	// network, and chain capacities under a view.
	seen     []bool
	chainCap []int64
}

// NewSolver returns a solver with empty buffers.
func NewSolver() *Solver { return &Solver{} }

// Bytes reports the capacity of the solver's pooled slices in bytes.
func (s *Solver) Bytes() int64 {
	return 4*int64(cap(s.level)+cap(s.iter)+cap(s.queue)) +
		8*int64(cap(s.net.resid)+cap(s.chainCap)) +
		int64(cap(s.seen))
}

// Solve computes the maximum flow and minimum cut of the graph laid out
// as the CSR c, reusing the solver's buffers. The solver runs on c's
// reduced network and aliases its topology, so c must not be modified
// until Solve returns. The Result speaks of the laid-out graph itself:
// Result.EdgeFlow[i] is the flow through its edge i, Cut.EdgeIndex
// indexes its edges and Cut.SourceSide its nodes. The returned Result
// (including its cut) is detached from the solver and stays valid across
// subsequent Solve calls.
//
// Mapping back is exact. An arc's flow is split greedily over its chains
// in chain order, and a chain carries its flow on every edge. A kept node
// takes its side from the reduced network's residual reachability. An
// interior node is on the source side when it is reachable forward from
// its chain's head through unsaturated edges, or backward from its
// chain's end along the chain's flow. That is the residual reachability
// of the mapped flow on the graph itself, and the set reachable from
// Source is the same for every maximum flow, so the cut is the one a
// solve of the unreduced graph reports, edge for edge.
//
// A non-nil view replaces the per-edge capacities before the solve, so N
// per-class solves share one CSR (topology untouched; chain and arc
// capacities are re-aggregated per solve in O(E)). EdgeFlow and the min
// cut are then reported against the view-effective capacities; edges the
// view zeroes never appear in the cut. A nil view solves the CSR as-is.
//
// work bounds the solve (work <= 0 means unlimited). Solve charges the
// layout one unit per graph edge and Dinic one unit per arc examination.
// When the budget runs out Dinic stops augmenting and the second return
// value is true; the returned Result then holds a partial flow — a LOWER
// bound on the maximum flow, so it must not be used as a leakage upper
// bound, and its cut is not a minimum cut. Callers needing a sound bound
// under exhaustion should fall back to a trivial cut.
func (s *Solver) Solve(c *flowgraph.CSR, view *flowgraph.CapacityView, work int64) (*Result, bool) {
	res := &Result{EdgeFlow: make([]int64, c.NumEdges())}
	chainCap := c.ChainCap
	if view != nil {
		chainCap = s.viewChainCaps(c, view, res.EdgeFlow)
	}
	s.net.attach(c, chainCap)
	s.limit, s.spent, s.exhausted = work, int64(c.NumEdges()), false
	if s.net.n > int(flowgraph.Sink) {
		res.Flow = s.dinic()
	}
	res.cut = s.expand(c, view, chainCap, res.EdgeFlow)
	return res, s.exhausted
}

// viewChainCaps returns every chain's capacity under view. It also leaves
// each view edge's capacity in edgeFlow as ^cap (edgeFlow is all zeros on
// entry), where expand reads it before writing the edge's flow.
func (s *Solver) viewChainCaps(c *flowgraph.CSR, view *flowgraph.CapacityView, edgeFlow []int64) []int64 {
	for k, ei := range view.Edge {
		edgeFlow[ei] = ^view.Cap[k]
	}
	caps := i64n(s.chainCap, len(c.ChainArc))
	for i, ch := 0, 0; i < c.NumEdges(); i++ {
		if !c.ChainHead(i) {
			continue
		}
		m := int64(math.MaxInt64)
		for e := i; e >= 0; e = c.Next(e) {
			m = min(m, effCap(c, edgeFlow, e))
		}
		caps[ch] = m
		ch++
	}
	s.chainCap = caps
	return caps
}

// effCap is edge e's capacity, or its view capacity when viewChainCaps
// marked it in edgeFlow.
func effCap(c *flowgraph.CSR, edgeFlow []int64, e int) int64 {
	if x := edgeFlow[e]; x < 0 {
		return ^x
	}
	return c.Edges[e].Cap
}

// viewCursor resolves view-effective capacities for ascending edge
// indices in amortized O(1) per lookup (the view's edge list is sorted).
type viewCursor struct {
	view *flowgraph.CapacityView
	k    int
}

func (c *viewCursor) cap(i int, base int64) int64 {
	v := c.view
	if v == nil {
		return base
	}
	for c.k < len(v.Edge) && v.Edge[c.k] < int32(i) {
		c.k++
	}
	if c.k < len(v.Edge) && v.Edge[c.k] == int32(i) {
		return v.Cap[c.k]
	}
	return base
}

// over reports whether the work budget is exhausted, latching the flag.
func (s *Solver) over() bool {
	if s.limit > 0 && s.spent >= s.limit {
		s.exhausted = true
	}
	return s.exhausted
}

// Compute solves g once, unbudgeted, and returns the maximum flow from
// flowgraph.Source to flowgraph.Sink.
func Compute(g *flowgraph.Graph) *Result {
	var c flowgraph.CSR
	g.BuildCSR(&c)
	res, _ := NewSolver().Solve(&c, nil, 0)
	return res
}

func (s *Solver) dinic() int64 {
	net := &s.net
	n := net.n
	s.level = i32n(s.level, n)
	s.iter = i32n(s.iter, n)
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	level, iter := s.level, s.iter
	src, t := int32(flowgraph.Source), int32(flowgraph.Sink)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[src] = 0
		q := append(s.queue[:0], src)
		for head := 0; head < len(q); head++ {
			v := q[head]
			arcs := net.arcs(v)
			s.spent += int64(len(arcs))
			for _, a := range arcs {
				w := net.to[a]
				if net.resid[a] > 0 && level[w] < 0 {
					level[w] = level[v] + 1
					q = append(q, w)
				}
			}
		}
		s.queue = q[:0]
		return level[t] >= 0
	}

	var dfs func(v int32, limit int64) int64
	dfs = func(v int32, limit int64) int64 {
		if v == t {
			return limit
		}
		for width := net.hstart[v+1] - net.hstart[v]; iter[v] < width; iter[v]++ {
			s.spent++
			a := net.harcs[net.hstart[v]+iter[v]]
			w := net.to[a]
			if net.resid[a] <= 0 || level[w] != level[v]+1 {
				continue
			}
			amt := limit
			if net.resid[a] < amt {
				amt = net.resid[a]
			}
			if pushed := dfs(w, amt); pushed > 0 {
				net.resid[a] -= pushed
				net.resid[a^1] += pushed
				return pushed
			}
		}
		level[v] = -1
		return 0
	}

	var total int64
	for !s.over() && bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for !s.over() {
			pushed := dfs(src, math.MaxInt64)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

// Cut is a minimum s-t cut: the set of edges crossing from the source side
// to the sink side of the partition induced by residual reachability.
type Cut struct {
	// EdgeIndex lists indices into the graph's edge slice, in edge order.
	EdgeIndex []int
	// Capacity is the total capacity of the cut edges; by max-flow/min-cut
	// it equals the maximum flow value.
	Capacity int64
	// SourceSide[v] reports whether node v is reachable from Source in the
	// residual graph.
	SourceSide []bool
}

// MinCut returns the minimum cut derived from the computed maximum flow
// (paper §6.1): nodes reachable from Source along residual-capacity paths
// form the source side; crossing edges form the cut. The cut is extracted
// eagerly by Solve, so this is a field access.
func (r *Result) MinCut() *Cut { return r.cut }

// expand maps the terminal residual network back onto the laid-out graph
// (see Solve): it fills edgeFlow, and returns the cut over the graph's own
// nodes and edges. SourceSide escapes into the Cut, so it is allocated
// fresh. Crossing edges count at their view-effective capacity, and
// view-zeroed edges are skipped.
func (s *Solver) expand(c *flowgraph.CSR, view *flowgraph.CapacityView, chainCap, edgeFlow []int64) *Cut {
	net := &s.net
	seen := s.reach()
	side := make([]bool, len(c.Node))
	for v, r := range c.Node {
		if r >= 0 {
			side[v] = seen[r]
		}
	}
	for i, ch := 0, 0; i < c.NumEdges(); i++ {
		if !c.ChainHead(i) {
			continue
		}
		// The arc's reverse residual is its flow; hand it out to the
		// arc's chains in order.
		a := c.ChainArc[ch]
		f := min(net.resid[2*a+1], chainCap[ch])
		net.resid[2*a+1] -= f
		ch++
		fwd := seen[net.to[2*a+1]]
		back := f > 0 && seen[net.to[2*a]]
		for e := i; e >= 0; e = c.Next(e) {
			fwd = fwd && f < effCap(c, edgeFlow, e)
			edgeFlow[e] = f
			if v := c.Edges[e].To; c.Node[v] < 0 {
				side[v] = fwd || back
			}
		}
	}
	if view != nil {
		// A view edge on a cycle of interior nodes is on no chain: it
		// carries no flow, but still holds its mark.
		for _, ei := range view.Edge {
			edgeFlow[ei] = max(edgeFlow[ei], 0)
		}
	}
	cut := &Cut{SourceSide: side}
	cur := viewCursor{view: view}
	for i := range c.Edges {
		e := &c.Edges[i]
		if side[e.From] && !side[e.To] {
			capi := cur.cap(i, e.Cap)
			if view != nil && capi == 0 {
				continue
			}
			cut.EdgeIndex = append(cut.EdgeIndex, i)
			cut.Capacity += capi
		}
	}
	return cut
}

// reach marks the reduced nodes reachable from Source in the residual
// network. The mark array and the DFS stack are scratch.
func (s *Solver) reach() []bool {
	net := &s.net
	seen := booln(s.seen, net.n)
	clear(seen)
	s.seen = seen
	stack := append(s.queue[:0], int32(flowgraph.Source))
	seen[flowgraph.Source] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range net.arcs(v) {
			if w := net.to[a]; net.resid[a] > 0 && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	s.queue = stack[:0]
	return seen
}

// Edges returns the graph edges selected by the cut.
func (c *Cut) Edges(g *flowgraph.Graph) []flowgraph.Edge {
	out := make([]flowgraph.Edge, len(c.EdgeIndex))
	for i, idx := range c.EdgeIndex {
		out[i] = g.Edges[idx]
	}
	return out
}

// i32n returns a length-n []int32, reusing s's backing array if it fits.
func i32n(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func i64n(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func booln(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
