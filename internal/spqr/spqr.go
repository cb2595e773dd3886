// Package spqr implements series-parallel reduction of flow networks,
// reproducing the structural investigation of paper §5.1.
//
// The paper explored SPQR trees to exploit the series-parallel regularities
// of execution flow graphs, and found the graphs to be a mixture: a
// constant fraction of each graph is an irreducible (non-series-parallel)
// core, which is why the exact approach does not scale and the collapsing
// approach of §5.2 is used instead. This package measures exactly that: it
// applies series and parallel reductions (plus dead-end elimination) until
// fixpoint, reports how much of the graph remains, and returns the reduced
// graph, whose s-t maximum flow equals the original's.
//
// The series and parallel rounds are flowgraph.Graph.BuildCSR's, the same
// layout every solve runs on; Reduce repeats them on the reduced network,
// pruning between rounds, until a round changes nothing.
//
// Reductions applied, all of which preserve the Source-Sink max flow:
//
//   - parallel: edges sharing (from, to) merge into one with summed capacity
//   - series: an interior node with in-degree 1 and out-degree 1 contracts,
//     its two edges replaced by one with the minimum capacity
//   - dead ends: interior nodes with in-degree or out-degree 0 are removed
//     together with their edges (they can carry no s-t flow)
//   - self-loops, edges into Source and edges out of Sink are dropped, as
//     are cycles of interior nodes that no kept node reaches
package spqr

import (
	"flowcheck/internal/flowgraph"
)

// Stats reports how far reduction got.
type Stats struct {
	OrigNodes, OrigEdges       int
	ReducedNodes, ReducedEdges int
	SeriesOps, ParallelOps     int
	DeadNodes                  int
	// CoreFraction is ReducedEdges / OrigEdges: the share of the graph that
	// is not series-parallel reducible. Paper §5.1 observed ~16% for bzip2.
	CoreFraction float64
}

// Reduce applies series-parallel reductions to a copy of g until fixpoint
// and returns the reduced graph (with renumbered node ids; Source and Sink
// keep their identities) together with reduction statistics.
func Reduce(g *flowgraph.Graph) (*flowgraph.Graph, Stats) {
	st := Stats{OrigNodes: g.NumNodes(), OrigEdges: g.NumEdges()}
	var c flowgraph.CSR
	for {
		g = prune(g, &st)
		g.BuildCSR(&c)
		if c.NumArcs() == c.NumEdges() {
			break
		}
		st.SeriesOps += g.NumNodes() - c.N
		st.ParallelOps += len(c.ChainArc) - c.NumArcs()
		g = contract(&c)
	}
	st.ReducedNodes = g.NumNodes()
	st.ReducedEdges = g.NumEdges()
	if st.OrigEdges > 0 {
		st.CoreFraction = float64(st.ReducedEdges) / float64(st.OrigEdges)
	}
	return g, st
}

// contract returns the reduced network c lays out, one edge per arc.
func contract(c *flowgraph.CSR) *flowgraph.Graph {
	caps := make([]int64, c.NumArcs())
	for ch, a := range c.ChainArc {
		caps[a] = min(caps[a]+c.ChainCap[ch], flowgraph.Inf)
	}
	out := flowgraph.New()
	out.EnsureNodes(c.N)
	out.Edges = make([]flowgraph.Edge, len(caps))
	for a, capa := range caps {
		out.Edges[a] = flowgraph.Edge{From: flowgraph.NodeID(c.To[2*a+1]), To: flowgraph.NodeID(c.To[2*a]), Cap: capa}
	}
	return out
}

// prune returns a copy of g without the edges that can carry no
// Source–Sink flow: self-loops, edges into Source or out of Sink, and,
// until none is left, the edges of interior nodes with no in-edge or no
// out-edge. Nodes left without edges are dropped; the rest keep their
// order, so Source and Sink stay 0 and 1.
func prune(g *flowgraph.Graph, st *Stats) *flowgraph.Graph {
	n := g.NumNodes()
	indeg := make([]int32, n)
	outdeg := make([]int32, n)
	live := make([]bool, len(g.Edges))
	for i, e := range g.Edges {
		if e.From != e.To && e.To != flowgraph.Source && e.From != flowgraph.Sink {
			live[i] = true
			outdeg[e.From]++
			indeg[e.To]++
		}
	}
	dead := func(v flowgraph.NodeID) bool {
		return v > flowgraph.Sink && (indeg[v] == 0 || outdeg[v] == 0)
	}
	for killed := true; killed; {
		killed = false
		for i, e := range g.Edges {
			if live[i] && (dead(e.From) || dead(e.To)) {
				live[i] = false
				outdeg[e.From]--
				indeg[e.To]--
				killed = true
			}
		}
	}

	id := make([]flowgraph.NodeID, n)
	out := flowgraph.New()
	for v := 2; v < n; v++ {
		if indeg[v] > 0 {
			id[v] = out.AddNode()
		}
	}
	id[flowgraph.Sink] = flowgraph.Sink
	st.DeadNodes += n - out.NumNodes()
	for i, e := range g.Edges {
		if live[i] {
			out.AddEdge(id[e.From], id[e.To], min(e.Cap, flowgraph.Inf), e.Label)
		}
	}
	return out
}
