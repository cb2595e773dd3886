package maxflow

import (
	"fmt"
	"slices"

	"flowcheck/internal/flowgraph"
)

// Certify checks in O(V + E) that edgeFlow is a maximum flow of value flow
// and cut a minimum cut of g at the capacities of view (nil: g's own), the
// graph and view they were solved for. By max-flow/min-cut duality a
// feasible flow whose value equals the capacity of an s-t cut is maximum,
// and the cut minimum, so the check needs no second solve:
//
//   - every edge carries 0 <= flow <= its effective capacity;
//   - flow is conserved at every node but Source and Sink;
//   - the net flow out of Source and into Sink is flow;
//   - Sink is not reachable from Source in the residual graph of edgeFlow;
//   - the cut lists exactly the edges crossing from that reachable set
//     to the rest (view-zeroed edges aside), each saturated;
//   - the cut's capacity is flow.
//
// The source side is worked out here, as residual reachability from
// Source under edgeFlow; nothing the solver reports about sides is
// trusted. It returns the first violation found, or nil. A
// budget-exhausted solve does not pass: its partial flow is not maximum.
func Certify(g *flowgraph.Graph, view *flowgraph.CapacityView, flow int64, edgeFlow []int64, cut *Cut) error {
	n := g.NumNodes()
	if len(edgeFlow) != len(g.Edges) || cut == nil {
		return fmt.Errorf("answer does not fit the graph: %d edge flows for %d edges, cut %v", len(edgeFlow), len(g.Edges), cut != nil)
	}
	caps := make([]int64, len(g.Edges))
	net := make([]int64, n)
	cur := viewCursor{view: view}
	for i := range g.Edges {
		e := &g.Edges[i]
		caps[i] = cur.cap(i, e.Cap)
		if f := edgeFlow[i]; f < 0 || f > caps[i] {
			return fmt.Errorf("edge %d (%d→%d): flow %d outside [0, %d]", i, e.From, e.To, f, caps[i])
		}
		net[e.From] -= edgeFlow[i]
		net[e.To] += edgeFlow[i]
	}
	for v, x := range net {
		if v != int(flowgraph.Source) && v != int(flowgraph.Sink) && x != 0 {
			return fmt.Errorf("node %d: flow not conserved (net %d)", v, x)
		}
	}
	if -net[flowgraph.Source] != flow || net[flowgraph.Sink] != flow {
		return fmt.Errorf("flow %d, but %d leaves Source and %d reaches Sink", flow, -net[flowgraph.Source], net[flowgraph.Sink])
	}
	side := residualReach(g, caps, edgeFlow)
	if side[flowgraph.Sink] {
		return fmt.Errorf("Sink is reachable from Source in the residual graph: flow %d is not maximum", flow)
	}
	k := 0
	var capacity int64
	for i := range g.Edges {
		e := &g.Edges[i]
		crossing := side[e.From] && !side[e.To] && (view == nil || caps[i] > 0)
		listed := k < len(cut.EdgeIndex) && cut.EdgeIndex[k] == i
		if crossing != listed {
			return fmt.Errorf("edge %d (%d→%d): crosses the cut %v, listed %v", i, e.From, e.To, crossing, listed)
		}
		if listed {
			if edgeFlow[i] != caps[i] {
				return fmt.Errorf("cut edge %d (%d→%d): flow %d, capacity %d: not saturated", i, e.From, e.To, edgeFlow[i], caps[i])
			}
			capacity += caps[i]
			k++
		}
	}
	if k != len(cut.EdgeIndex) {
		return fmt.Errorf("cut lists %d edges, %d cross it in order", len(cut.EdgeIndex), k)
	}
	if cut.Capacity != capacity || capacity != flow {
		return fmt.Errorf("cut capacity %d (edges sum to %d), flow %d", cut.Capacity, capacity, flow)
	}
	return nil
}

// residualReach marks the nodes of g reachable from Source in the residual
// graph of edgeFlow at the effective capacities caps: forward along an
// edge it does not saturate, or backward along an edge that carries flow.
func residualReach(g *flowgraph.Graph, caps, edgeFlow []int64) []bool {
	n := g.NumNodes()
	// Each node's incident edges, in and out: inc[start[v]:start[v+1]].
	start := make([]int32, n+1)
	for _, e := range g.Edges {
		start[e.From+1]++
		start[e.To+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	inc := make([]int32, start[n])
	next := slices.Clone(start[:n])
	for i, e := range g.Edges {
		inc[next[e.From]] = int32(i)
		next[e.From]++
		inc[next[e.To]] = int32(i)
		next[e.To]++
	}

	seen := make([]bool, n)
	seen[flowgraph.Source] = true
	stack := []flowgraph.NodeID{flowgraph.Source}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range inc[start[v]:start[v+1]] {
			e := &g.Edges[i]
			w, residual := e.To, edgeFlow[i] < caps[i]
			if e.To == v {
				w, residual = e.From, edgeFlow[i] > 0
			}
			if residual && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}
