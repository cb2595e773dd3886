package flowgraph

import (
	"fmt"
	"unsafe"
)

// Arena is the append-only edge store behind flow-graph construction: the
// taint builder emits every dynamic edge into it while the guest runs, and
// Take hands the store to the finished Graph. Collapsed construction (§5.2)
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
	// taken is the edge count of the store Take handed to a Graph, 0
	// while the arena owns its store. A taken arena accepts no edges
	// until Reset.
	taken int
	// size is the capacity of the current store, set by Reset and
	// allocated by the first AddEdge after it; the next Reset sizes the
	// store after it from this one.
	size int
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

// Reset empties the arena back to the two terminal nodes. It never keeps
// the old store, which may belong to a Graph. The new one has room for
// the largest recent run, min(max(last size, last count), 2·last count),
// and grows by append: a run as large as the ones before it never regrows
// its store, and an outlier run sizes at most the one store after it,
// because the cap is the same 2× slack Take allows a graph. The first
// AddEdge allocates it, so the cost lands in the run that fills it.
func (a *Arena) Reset() {
	n := a.NumEdges()
	a.size = min(max(a.size, n), 2*n)
	a.edges = nil
	a.numNodes, a.taken = 2, 0
}

// NumNodes reports the number of node ids allocated; valid node ids are
// [0, NumNodes).
func (a *Arena) NumNodes() int { return int(a.numNodes) }

// NumEdges reports the number of edges stored, or handed over by Take.
func (a *Arena) NumEdges() int {
	if a.taken > 0 {
		return a.taken
	}
	return len(a.edges)
}

// Bytes reports the capacity of the arena's edge store in bytes: 0 once
// Take has handed the store over, and until the first AddEdge after
// Reset.
func (a *Arena) Bytes() int64 { return int64(cap(a.edges)) * int64(unsafe.Sizeof(Edge{})) }

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
	if a.taken > 0 {
		panic("flowgraph: edge added to an arena whose store was taken")
	}
	if from < 0 || to < 0 || from >= a.numNodes || to >= a.numNodes {
		panic(fmt.Sprintf("flowgraph: arena edge (%d,%d) outside node range [0,%d)", from, to, a.numNodes))
	}
	if cap < 0 {
		panic(fmt.Sprintf("flowgraph: negative capacity %d", cap))
	}
	if a.edges == nil {
		a.edges = make([]Edge, 0, a.size)
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

// Export materializes the arena's edges as a Graph in a new edge slice,
// leaving the arena intact, so construction can go on (a mid-run FlowNote
// snapshot). resolve maps an arena node to its representative (a
// union-find Find for collapsed construction); nil means identity. Arena
// nodes resolving to the terminals become Source and Sink, other nodes are
// renumbered by first appearance in slot order; self-loops, edges out of
// the Sink, and edges into the Source are dropped, and capacities clamp to
// Inf — reproducing the historical builder output byte for byte.
func (a *Arena) Export(resolve func(int32) int32) *Graph {
	return a.export(resolve, make([]Edge, 0, len(a.edges)))
}

// Take is Export without the copy, for the end of construction: the graph
// is written in place over the arena's own store, and the store becomes
// the Graph's. The arena keeps reporting its node and edge counts but
// accepts no edges until Reset. A store more than twice the graph's size
// (spare capacity from append growth or from Reset's sizing) is copied to
// exact size instead, so a graph never pins much more than it uses.
func (a *Arena) Take(resolve func(int32) int32) *Graph {
	g := a.export(resolve, a.edges[:0])
	a.edges, a.taken = nil, len(a.edges)
	if cap(g.Edges) > 2*len(g.Edges) {
		g.Edges = append(make([]Edge, 0, len(g.Edges)), g.Edges...)
	}
	return g
}

// export is the one export loop behind Export and Take: it appends the
// graph's edges to dst. Each arena edge yields at most one graph edge, so
// when dst is the arena's own store emptied, the write index never passes
// the read index and every edge is read before its slot is overwritten.
func (a *Arena) export(resolve func(int32) int32, dst []Edge) *Graph {
	out := New()
	out.Edges = dst
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
		e := a.edges[i]
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
