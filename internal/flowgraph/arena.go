package flowgraph

import "fmt"

// Arena is the append-only edge store behind flow-graph construction: the
// taint builder emits every dynamic edge into it while the guest runs, and
// Export turns the store into a Graph. Collapsed construction (§5.2)
// re-finds an edge by its slot and accumulates capacity into it; exact
// construction only appends. Nodes cost nothing: the arena only counts
// them.
//
// Node 0 and node 1 are pre-allocated and permanently correspond to the
// graph Source and Sink.
//
// An Arena is not safe for concurrent use; each tracker owns one.
type Arena struct {
	edges    []Edge
	numNodes int32
}

// MemStats reports a graph core's size — the observable for the paper's
// §5.2 scalability claim: in collapsed mode the edge count grows with
// static code size, in exact mode with executed instructions. An arena
// never frees a node or an edge, so one run's peak live sizes equal its
// totals; over a batch, peaks are the largest run's and totals the sum.
type MemStats struct {
	PeakLiveNodes, PeakLiveEdges int
	TotalNodes, TotalEdges       int
}

// NewArena returns an arena holding only the two terminal nodes.
func NewArena() *Arena {
	return &Arena{numNodes: 2}
}

// Reset empties the arena back to the two terminal nodes, keeping its edge
// slots for the next graph.
func (a *Arena) Reset() {
	a.edges = a.edges[:0]
	a.numNodes = 2
}

// NumNodes reports the number of node ids allocated; valid node ids are
// [0, NumNodes).
func (a *Arena) NumNodes() int { return int(a.numNodes) }

// NumEdges reports the number of edges stored.
func (a *Arena) NumEdges() int { return len(a.edges) }

// Mem returns the arena's memory statistics.
func (a *Arena) Mem() MemStats {
	n, e := a.NumNodes(), a.NumEdges()
	return MemStats{PeakLiveNodes: n, PeakLiveEdges: e, TotalNodes: n, TotalEdges: e}
}

// AddNode allocates a new node and returns its id.
func (a *Arena) AddNode() int32 {
	a.numNodes++
	return a.numNodes - 1
}

// AddEdge appends an edge and returns its slot, by which Accumulate and
// EdgeEnds address it.
func (a *Arena) AddEdge(from, to int32, cap int64, label Label) int32 {
	if from < 0 || to < 0 || from >= a.numNodes || to >= a.numNodes {
		panic(fmt.Sprintf("flowgraph: arena edge (%d,%d) outside node range [0,%d)", from, to, a.numNodes))
	}
	if cap < 0 {
		panic(fmt.Sprintf("flowgraph: negative capacity %d", cap))
	}
	a.edges = append(a.edges, Edge{From: NodeID(from), To: NodeID(to), Cap: cap, Label: label})
	return int32(len(a.edges) - 1)
}

// Accumulate adds cap to an edge's capacity, saturating at Inf — the
// collapsed-mode label hit (§5.2).
func (a *Arena) Accumulate(slot int32, cap int64) {
	e := &a.edges[slot]
	e.Cap += cap
	if e.Cap > Inf {
		e.Cap = Inf
	}
}

// EdgeEnds returns an edge's endpoints.
func (a *Arena) EdgeEnds(slot int32) (from, to int32) {
	e := &a.edges[slot]
	return int32(e.From), int32(e.To)
}

// ---------------------------------------------------------------- export ---

// Export materializes the arena's edges as a Graph, renumbering nodes
// by first appearance in slot order. resolve maps an arena node to its
// representative (a union-find Find for collapsed construction); nil means
// identity. Arena nodes resolving to the terminals become Source and Sink;
// self-loops, edges out of the Sink, and edges into the Source are dropped,
// and capacities clamp to Inf — reproducing the historical builder output
// byte for byte.
func (a *Arena) Export(resolve func(int32) int32) *Graph {
	out := New()
	out.Edges = make([]Edge, 0, len(a.edges))
	node := make([]NodeID, a.numNodes)
	for i := range node {
		node[i] = -1
	}
	rs, rt := int32(0), int32(1)
	if resolve != nil {
		rs, rt = resolve(0), resolve(1)
	}
	node[rs] = Source
	node[rt] = Sink
	for i := range a.edges {
		e := &a.edges[i]
		f, t := int32(e.From), int32(e.To)
		if resolve != nil {
			f, t = resolve(f), resolve(t)
		}
		from := node[f]
		if from < 0 {
			from = out.AddNode()
			node[f] = from
		}
		to := node[t]
		if to < 0 {
			to = out.AddNode()
			node[t] = to
		}
		if from == to || from == Sink || to == Source {
			continue
		}
		out.AddEdge(from, to, min(e.Cap, Inf), e.Label)
	}
	return out
}

// growI32 returns a length-n []int32, reusing s's backing array if it fits.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}
