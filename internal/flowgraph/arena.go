package flowgraph

import (
	"fmt"
	"unsafe"

	"flowcheck/internal/unionfind"
)

// Arena is the append-only edge store behind flow-graph construction: the
// taint builder emits every dynamic edge into it while the guest runs,
// merge.Graphs replays finished graphs into it, and Take hands the store
// to the finished Graph. A collapsed arena (§5.2) indexes its edges by
// Key: an edge whose key it already holds adds its capacity to that slot
// and unions its endpoints with the slot's in a union-find, which Export
// and Take resolve — one mechanism for collapsing within a run and
// merging across runs (§3.2). It keeps each edge's context word in a
// column beside the store. An exact arena only appends, and its edges,
// unique by slot, keep no context. Nodes cost nothing: the arena only
// counts them, and a collapsed arena's union-find grows in lockstep.
//
// Node 0 and node 1 are pre-allocated and permanently correspond to the
// graph Source and Sink.
//
// An Arena is not safe for concurrent use; each tracker owns one.
type Arena struct {
	exact bool
	edges []Edge
	// ctx is the context column, parallel to edges; nil in an exact
	// arena. It is sized, allocated and handed over with edges.
	ctx []uint64
	// slots maps a collapsed arena's keys to their edge slots, and uf
	// unions the endpoints of edges that share a key; classes are
	// resolved only at export. Both nil in an exact arena.
	slots    map[Key]int32
	uf       *unionfind.UF
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

// NewArena returns an arena holding only the two terminal nodes, for an
// exact graph or a collapsed one.
func NewArena(exact bool) *Arena {
	a := &Arena{exact: exact, numNodes: 2}
	if !exact {
		a.slots = map[Key]int32{}
		a.uf = unionfind.New(2) // elements 0,1 mirror the terminals
	}
	return a
}

// Reset empties the arena back to the two terminal nodes. It never keeps
// the old store, which may belong to a Graph. The new one has room for
// the largest recent run, min(max(last size, last count), 2·last count),
// and grows by append: a run as large as the ones before it never regrows
// its store, and an outlier run sizes at most the one store after it,
// because the cap is the same 2× slack Take allows a graph. The first
// AddEdge allocates it, so the cost lands in the run that fills it. The
// key index and union-find are emptied and keep their storage.
func (a *Arena) Reset() {
	n := a.NumEdges()
	a.size = min(max(a.size, n), 2*n)
	a.edges, a.ctx = nil, nil
	a.numNodes, a.taken = 2, 0
	clear(a.slots)
	if a.uf != nil {
		a.uf.Reset(2)
	}
}

// Reserve sizes the next store the arena allocates for n edges, for a
// caller that knows the edge count in advance. It has no effect once the
// current store is allocated.
func (a *Arena) Reserve(n int) {
	if a.edges == nil {
		a.size = n
	}
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

// Bytes reports the capacity of the arena's edge store and context column
// in bytes: 0 once Take has handed them over, and until the first AddEdge
// after Reset.
func (a *Arena) Bytes() int64 {
	return int64(cap(a.edges))*int64(unsafe.Sizeof(Edge{})) + int64(cap(a.ctx))*8
}

// Mem returns the arena's memory statistics.
func (a *Arena) Mem() MemStats {
	n, e := a.NumNodes(), a.NumEdges()
	return MemStats{PeakLiveNodes: n, PeakLiveEdges: e, TotalNodes: n, TotalEdges: e}
}

// AddNode allocates a new node and returns its id.
func (a *Arena) AddNode() int32 {
	a.numNodes++
	if a.uf != nil {
		a.uf.MakeSet()
	}
	return a.numNodes - 1
}

// AddEdge records an edge under key k and returns its slot, by which
// Accumulate and EdgeEnds address it. A collapsed arena already holding k
// adds cap to that slot (saturating at Inf) and unions from and to with
// the slot's endpoints — the collapsed-mode label hit (§5.2) and the
// cross-run merge (§3.2); otherwise the edge is appended. An exact arena
// always appends and stores k's label only.
func (a *Arena) AddEdge(from, to int32, cap int64, k Key) int32 {
	if a.taken > 0 {
		panic("flowgraph: edge added to an arena whose store was taken")
	}
	if from < 0 || to < 0 || from >= a.numNodes || to >= a.numNodes {
		panic(fmt.Sprintf("flowgraph: arena edge (%d,%d) outside node range [0,%d)", from, to, a.numNodes))
	}
	if cap < 0 {
		panic(fmt.Sprintf("flowgraph: negative capacity %d", cap))
	}
	if slot, ok := a.slots[k]; ok {
		a.Accumulate(slot, cap)
		e := &a.edges[slot]
		a.uf.Union(int(e.From), int(from))
		a.uf.Union(int(e.To), int(to))
		return slot
	}
	if a.edges == nil {
		a.edges = make([]Edge, 0, a.size)
		if !a.exact {
			a.ctx = make([]uint64, 0, a.size)
		}
	}
	slot := int32(len(a.edges))
	a.edges = append(a.edges, Edge{From: NodeID(from), To: NodeID(to), Cap: cap, Label: k.Label()})
	if !a.exact {
		a.ctx = append(a.ctx, k.Ctx)
		a.slots[k] = slot
	}
	return slot
}

// Slot returns the slot of a collapsed arena's edge under key k; it
// always misses in an exact arena.
func (a *Arena) Slot(k Key) (int32, bool) {
	slot, ok := a.slots[k]
	return slot, ok
}

// Accumulate adds cap to an edge's capacity, saturating at Inf.
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

// Export materializes the arena's edges as a Graph in a new edge slice
// (and, for a collapsed arena, a new context column), leaving the arena
// intact, so construction can go on (a mid-run FlowNote snapshot).
// Each arena node resolves to its union-find class in a collapsed arena,
// to itself in an exact one. Nodes resolving to the terminals become
// Source and Sink, other nodes are renumbered by first appearance in slot
// order; self-loops, edges out of the Sink, and edges into the Source are
// dropped, and capacities clamp to Inf — reproducing the historical
// builder output byte for byte. The graph is Exact if the arena is.
func (a *Arena) Export() *Graph {
	return a.export(make([]Edge, 0, len(a.edges)), make([]uint64, 0, len(a.ctx)))
}

// Take is Export without the copy, for the end of construction: the graph
// is written in place over the arena's own store and context column, and
// they become the Graph's. The arena keeps reporting its node and edge
// counts but accepts no edges until Reset. A store or column more than
// twice the graph's size (spare capacity from append growth or from
// Reset's sizing) is copied to exact size instead, so a graph never pins
// much more than it uses.
func (a *Arena) Take() *Graph {
	g := a.export(a.edges[:0], a.ctx[:0])
	a.edges, a.ctx, a.taken = nil, nil, len(a.edges)
	if cap(g.Edges) > 2*len(g.Edges) {
		g.Edges = append(make([]Edge, 0, len(g.Edges)), g.Edges...)
	}
	if cap(g.Ctx) > 2*len(g.Ctx) { // append grows each on its own schedule
		g.Ctx = append(make([]uint64, 0, len(g.Ctx)), g.Ctx...)
	}
	return g
}

// export is the one export loop behind Export and Take: it appends the
// graph's edges to dst and, for a collapsed arena, their context words to
// ctx, which an exact arena ignores. Each arena edge yields at most one
// graph edge, so when dst and ctx are the arena's own store and column
// emptied, the write index never passes the read index and every slot is
// read before it is overwritten.
func (a *Arena) export(dst []Edge, ctx []uint64) *Graph {
	out := New()
	out.Exact = a.exact
	out.Edges = dst
	node := make([]NodeID, a.numNodes)
	for i := range node {
		node[i] = -1
	}
	node[a.find(0)] = Source
	node[a.find(1)] = Sink
	for i := range a.edges {
		e := a.edges[i]
		f, t := a.find(int32(e.From)), a.find(int32(e.To))
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
		if !a.exact {
			ctx = append(ctx, a.ctx[i])
		}
	}
	if !a.exact {
		out.Ctx = ctx
	}
	return out
}

// find returns a node's union-find class representative in a collapsed
// arena, the node itself in an exact one.
func (a *Arena) find(v int32) int32 {
	if a.uf == nil {
		return v
	}
	return int32(a.uf.Find(int(v)))
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
