package maxflow

import (
	"fmt"

	"flowcheck/internal/flowgraph"
)

// Certify checks in O(V + E) that r is a maximum flow and minimum cut of
// g at the capacities of view (nil: g's own), the graph and view r was
// solved for. By max-flow/min-cut duality a feasible flow whose value
// equals the capacity of an s-t cut is maximum, and the cut minimum, so
// the check needs no second solve:
//
//   - every edge carries 0 <= flow <= its effective capacity;
//   - flow is conserved at every node but Source and Sink;
//   - the net flow out of Source and into Sink is r.Flow;
//   - Source is on the source side and Sink is not;
//   - the cut lists exactly the edges crossing from the source side to
//     the sink side (view-zeroed edges aside), each saturated;
//   - the cut's capacity is r.Flow.
//
// It returns the first violation found, or nil. A budget-exhausted solve
// does not pass: its partial flow is not maximum.
func Certify(g *flowgraph.Graph, view *flowgraph.CapacityView, r *Result) error {
	cut := r.MinCut()
	n := g.NumNodes()
	if len(r.EdgeFlow) != len(g.Edges) || cut == nil || len(cut.SourceSide) != n {
		return fmt.Errorf("result does not fit the graph: %d edge flows for %d edges, cut %v", len(r.EdgeFlow), len(g.Edges), cut != nil)
	}
	side := cut.SourceSide
	if !side[flowgraph.Source] || side[flowgraph.Sink] {
		return fmt.Errorf("source side holds Source=%v, Sink=%v", side[flowgraph.Source], side[flowgraph.Sink])
	}
	net := make([]int64, n)
	cur := viewCursor{view: view}
	k := 0
	var capacity int64
	for i := range g.Edges {
		e := &g.Edges[i]
		capi, f := cur.cap(i, e.Cap), r.EdgeFlow[i]
		if f < 0 || f > capi {
			return fmt.Errorf("edge %d (%d→%d): flow %d outside [0, %d]", i, e.From, e.To, f, capi)
		}
		net[e.From] -= f
		net[e.To] += f
		crossing := side[e.From] && !side[e.To] && (view == nil || capi > 0)
		listed := k < len(cut.EdgeIndex) && cut.EdgeIndex[k] == i
		if crossing != listed {
			return fmt.Errorf("edge %d (%d→%d): crosses the cut %v, listed %v", i, e.From, e.To, crossing, listed)
		}
		if listed {
			if f != capi {
				return fmt.Errorf("cut edge %d (%d→%d): flow %d, capacity %d: not saturated", i, e.From, e.To, f, capi)
			}
			capacity += capi
			k++
		}
	}
	if k != len(cut.EdgeIndex) {
		return fmt.Errorf("cut lists %d edges, %d cross it in order", len(cut.EdgeIndex), k)
	}
	for v, x := range net {
		if v != int(flowgraph.Source) && v != int(flowgraph.Sink) && x != 0 {
			return fmt.Errorf("node %d: flow not conserved (net %d)", v, x)
		}
	}
	if -net[flowgraph.Source] != r.Flow || net[flowgraph.Sink] != r.Flow {
		return fmt.Errorf("flow %d, but %d leaves Source and %d reaches Sink", r.Flow, -net[flowgraph.Source], net[flowgraph.Sink])
	}
	if cut.Capacity != capacity || capacity != r.Flow {
		return fmt.Errorf("cut capacity %d (edges sum to %d), flow %d", cut.Capacity, capacity, r.Flow)
	}
	return nil
}
