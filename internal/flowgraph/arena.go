package flowgraph

import "fmt"

// Arena is the mutable graph core behind flow-graph construction: a slab of
// edge slots, a free list for reclaimed slots, and in-place series-parallel
// contraction (CompactSP). It exists so the §5.2 property — tool memory
// proportional to static code size, not to executed instructions — holds
// while the guest is still running: the taint builder emits every dynamic
// edge into an arena and periodically compacts the part of the graph the
// execution can no longer reach, instead of materializing the full
// per-operation graph and shrinking it afterwards.
//
// Nodes cost nothing between compactions: the arena only counts them.
// Each CompactSP pass recounts node degrees from the live edges, so
// building a graph that is never compacted keeps no per-node state.
//
// Node 0 and node 1 are pre-allocated and permanently correspond to the
// graph Source and Sink; they are never contracted. Edge slots killed by
// compaction return to the free list and are reused by later AddEdge calls,
// so the slot array's length tracks the peak live size rather than the
// total emitted count.
//
// An Arena is not safe for concurrent use; each tracker owns one.
type Arena struct {
	// edges holds one slot per edge ever live at once. A killed slot has
	// From < 0 and waits on the free list for reuse.
	edges []Edge
	free  []int32 // dead slots available for reuse

	numNodes  int32
	liveNodes int
	liveEdges int
	mem       MemStats

	// dead marks nodes compaction reclaimed. It covers the nodes that
	// existed at the last pass; later nodes are alive by construction.
	dead []bool

	// Compaction scratch, allocated on first CompactSP and reused across
	// passes. indeg and outdeg are the live degrees, recounted at the start
	// of each pass. The stamp arrays make per-sweep state O(1) to reset: an
	// entry is meaningful only when its stamp equals the current sweep
	// generation.
	indeg      []int32
	outdeg     []int32
	gen        uint32
	uniqueIn   []int32 // sole in-edge slot of a node, -1 if several
	uniqueOut  []int32
	stampIn    []uint32
	stampOut   []uint32
	dropFrom   []uint32 // gen-stamped: kill out-edges of this node (dead source side)
	dropTo     []uint32 // gen-stamped: kill in-edges of this node (dead sink side)
	parMap     map[int64]int32
	pending    []int32 // slots killed this sweep; recycled at the next sweep
	chainKills []int32
}

func alive(e *Edge) bool { return e.From >= 0 }

// MemStats reports the arena's memory behavior — the observable for the
// paper's §5.2 scalability claim. With online compaction, PeakLiveEdges
// should grow with static code size (plus the execution's live frontier)
// while TotalEdges grows with executed instructions.
type MemStats struct {
	// Live sizes now, and their high-water marks.
	LiveNodes, LiveEdges         int
	PeakLiveNodes, PeakLiveEdges int

	// Totals ever emitted into the arena.
	TotalNodes, TotalEdges int

	// Compaction activity: passes run, edges/nodes reclaimed by reductions,
	// and reclaimed edge slots reused by later insertions.
	CompactionPasses int
	ReclaimedEdges   int
	ReclaimedNodes   int
	RecycledSlots    int

	// Reduction operation counts (series contractions, parallel merges,
	// dead-end eliminations), summed over all passes.
	SeriesOps   int
	ParallelOps int
	DeadEnds    int
}

// NewArena returns an arena holding only the two terminal nodes.
func NewArena() *Arena {
	a := &Arena{}
	a.AddNode() // Source
	a.AddNode() // Sink
	return a
}

// Reset empties the arena back to the two terminal nodes and zeroed
// statistics, keeping its buffers (edge slots, compaction scratch) for the
// next graph.
func (a *Arena) Reset() {
	a.edges = a.edges[:0]
	a.free = a.free[:0]
	a.dead = a.dead[:0]
	a.pending = a.pending[:0]
	a.numNodes, a.liveNodes, a.liveEdges = 0, 0, 0
	a.mem = MemStats{}
	a.AddNode() // Source
	a.AddNode() // Sink
}

// NumNodes reports the number of node ids ever allocated (dead included);
// valid node ids are [0, NumNodes).
func (a *Arena) NumNodes() int { return int(a.numNodes) }

// LiveNodes reports the nodes not reclaimed by compaction.
func (a *Arena) LiveNodes() int { return a.liveNodes }

// LiveEdges reports the edges currently alive.
func (a *Arena) LiveEdges() int { return a.liveEdges }

// Mem returns a snapshot of the arena's memory statistics.
func (a *Arena) Mem() MemStats {
	m := a.mem
	m.LiveNodes = a.liveNodes
	m.LiveEdges = a.liveEdges
	return m
}

// AddNode allocates a new node and returns its id.
func (a *Arena) AddNode() int32 {
	id := a.numNodes
	a.numNodes++
	a.liveNodes++
	a.mem.TotalNodes++
	if a.liveNodes > a.mem.PeakLiveNodes {
		a.mem.PeakLiveNodes = a.liveNodes
	}
	return id
}

// AddEdge inserts an edge and returns its slot, reusing a reclaimed slot
// when one is free. Slots are stable for the edge's lifetime: Accumulate
// and EdgeEnds address the edge by slot until compaction kills it.
func (a *Arena) AddEdge(from, to int32, cap int64, label Label) int32 {
	if from < 0 || to < 0 || from >= a.numNodes || to >= a.numNodes {
		panic(fmt.Sprintf("flowgraph: arena edge (%d,%d) outside node range [0,%d)", from, to, a.numNodes))
	}
	if cap < 0 {
		panic(fmt.Sprintf("flowgraph: negative capacity %d", cap))
	}
	e := Edge{From: NodeID(from), To: NodeID(to), Cap: cap, Label: label}
	var slot int32
	if n := len(a.free); n > 0 {
		slot = a.free[n-1]
		a.free = a.free[:n-1]
		a.edges[slot] = e
		a.mem.RecycledSlots++
	} else {
		slot = int32(len(a.edges))
		a.edges = append(a.edges, e)
	}
	a.liveEdges++
	a.mem.TotalEdges++
	if a.liveEdges > a.mem.PeakLiveEdges {
		a.mem.PeakLiveEdges = a.liveEdges
	}
	return slot
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

// kill removes an edge during a compaction pass, crediting its slot to the
// pending list (recycled at the next compaction sweep, once nothing
// references it).
func (a *Arena) kill(slot int32) {
	e := &a.edges[slot]
	if !alive(e) {
		return
	}
	a.outdeg[e.From]--
	a.indeg[e.To]--
	e.From = -1
	a.liveEdges--
	a.mem.ReclaimedEdges++
	a.pending = append(a.pending, slot)
}

// killNode marks a node reclaimed.
func (a *Arena) killNode(v int32) {
	if a.dead[v] {
		return
	}
	a.dead[v] = true
	a.liveNodes--
	a.mem.ReclaimedNodes++
}

// ------------------------------------------------------------ compaction ---

// CompactSP applies the series-parallel reductions of §5.1 in place until
// fixpoint:
//
//   - parallel: edges sharing (from, to) merge, capacities summed
//     (saturating at Inf)
//   - series: an unprotected interior node with in-degree 1 and out-degree
//     1 contracts, its edges replaced by one of the minimum capacity
//   - dead ends: unprotected interior nodes with in- or out-degree 0 lose
//     their edges (they can carry no s-t flow)
//   - self-loops are dropped
//
// Every reduction preserves the Source-Sink maximum flow, so CompactSP may
// run at any point during construction — provided protected[v] is true for
// every node the builder may still attach edges to (the execution's live
// frontier: shadow memory, registers, open regions, the output chain).
// Unprotected nodes are exactly those the run can never reference again,
// which is what makes eliminating them sound. protected may be nil (only
// the terminals are protected) or shorter than NumNodes (missing entries
// are unprotected); nodes 0 and 1 are always protected.
func (a *Arena) CompactSP(protected []bool) {
	a.mem.CompactionPasses++
	n := int(a.numNodes)
	a.indeg = growI32(a.indeg, n)
	a.outdeg = growI32(a.outdeg, n)
	clear(a.indeg)
	clear(a.outdeg)
	for i := range a.edges {
		if e := &a.edges[i]; alive(e) {
			a.outdeg[e.From]++
			a.indeg[e.To]++
		}
	}
	a.dead = growDead(a.dead, n)
	a.uniqueIn = growI32(a.uniqueIn, n)
	a.uniqueOut = growI32(a.uniqueOut, n)
	a.stampIn = growU32(a.stampIn, n)
	a.stampOut = growU32(a.stampOut, n)
	a.dropFrom = growU32(a.dropFrom, n)
	a.dropTo = growU32(a.dropTo, n)
	if a.parMap == nil {
		a.parMap = make(map[int64]int32)
	}
	for a.sweep(protected) > 0 {
	}
	// The last sweep's kills are safe to recycle now: all per-sweep
	// references into the slot array are dead with the sweep.
	a.free = append(a.free, a.pending...)
	a.pending = a.pending[:0]
}

func (a *Arena) prot(v int32, protected []bool) bool {
	return int(v) < len(protected) && protected[v]
}

// sweep runs one pass of all reductions over the live edges and returns
// the number of reduction operations performed. Each operation removes at
// least one edge, so iterating sweeps terminates; reductions enabled by
// this sweep's kills (cascading dead ends, chains revealed by parallel
// merges) are picked up by the next sweep.
func (a *Arena) sweep(protected []bool) int {
	a.gen++
	gen := a.gen
	// Slots killed by the previous sweep are unreferenced once the unique-
	// arc scratch is rebuilt below; recycle them.
	a.free = append(a.free, a.pending...)
	a.pending = a.pending[:0]

	ops := 0

	// Edge scan: drop self-loops, merge parallel edges (first slot wins, so
	// edge order stays deterministic), and record each node's unique in/out
	// arc for series detection.
	clear(a.parMap)
	for i := range a.edges {
		e := &a.edges[i]
		if !alive(e) {
			continue
		}
		slot := int32(i)
		if e.From == e.To {
			a.kill(slot)
			ops++
			continue
		}
		key := int64(e.From)<<32 | int64(e.To)
		if first, ok := a.parMap[key]; ok {
			f := &a.edges[first]
			f.Cap += e.Cap
			if f.Cap > Inf {
				f.Cap = Inf
			}
			a.kill(slot)
			a.mem.ParallelOps++
			ops++
			continue
		}
		a.parMap[key] = slot
		if a.stampOut[e.From] == gen {
			a.uniqueOut[e.From] = -1
		} else {
			a.stampOut[e.From] = gen
			a.uniqueOut[e.From] = slot
		}
		if a.stampIn[e.To] == gen {
			a.uniqueIn[e.To] = -1
		} else {
			a.stampIn[e.To] = gen
			a.uniqueIn[e.To] = slot
		}
	}

	// Dead-end marking: unprotected interior nodes that cannot carry s-t
	// flow lose all their edges (edge-major kill below); isolated nodes are
	// reclaimed outright.
	n := int32(len(a.indeg))
	drops := false
	for v := int32(2); v < n; v++ {
		if a.dead[v] || a.prot(v, protected) {
			continue
		}
		switch {
		case a.indeg[v] == 0 && a.outdeg[v] == 0:
			a.killNode(v)
		case a.outdeg[v] == 0:
			a.dropTo[v] = gen
			a.mem.DeadEnds++
			drops = true
		case a.indeg[v] == 0:
			a.dropFrom[v] = gen
			a.mem.DeadEnds++
			drops = true
		}
	}
	if drops {
		for i := range a.edges {
			e := &a.edges[i]
			if alive(e) && (a.dropTo[e.To] == gen || a.dropFrom[e.From] == gen) {
				a.kill(int32(i))
				ops++
			}
		}
	}

	// Series contraction, whole chains at a time: from each chain head
	// (a candidate whose predecessor is not one), walk the run of
	// candidate nodes, kill every traversed edge, and bridge the ends with
	// one edge of the minimum capacity. Entering only at heads both avoids
	// quadratic rescans and guarantees termination: a cycle made purely of
	// candidates has no head, and any entry point into a cycle has
	// in-degree 2 and is no candidate.
	for v := int32(2); v < n; v++ {
		if !a.chainCand(v, protected, gen) {
			continue
		}
		ein := a.uniqueIn[v]
		u := int32(a.edges[ein].From)
		if a.chainCand(u, protected, gen) {
			continue // interior of a chain; its head will consume it
		}
		capMin := a.edges[ein].Cap
		lbl := a.edges[ein].Label
		kills := append(a.chainKills[:0], ein)
		cur := v
		var w int32
		for {
			eout := a.uniqueOut[cur]
			if a.edges[eout].Cap < capMin {
				capMin = a.edges[eout].Cap
			}
			kills = append(kills, eout)
			a.killNode(cur)
			a.mem.SeriesOps++
			ops++
			w = int32(a.edges[eout].To)
			if !a.chainCand(w, protected, gen) {
				break
			}
			cur = w
		}
		for _, s := range kills {
			a.kill(s)
		}
		a.chainKills = kills[:0]
		if u != w { // u == w would be a self-loop: drop entirely
			a.AddEdge(u, w, capMin, lbl)
			a.outdeg[u]++
			a.indeg[w]++
		}
	}
	return ops
}

// chainCand reports whether v is series-contractible right now: an
// unprotected interior node with exactly one live in-edge and one live
// out-edge, both still identified by this sweep's unique-arc scratch. A
// node whose unique arc was killed or superseded mid-sweep fails the check
// and is reconsidered by the next sweep.
func (a *Arena) chainCand(v int32, protected []bool, gen uint32) bool {
	if v < 2 || a.dead[v] || a.prot(v, protected) || a.indeg[v] != 1 || a.outdeg[v] != 1 {
		return false
	}
	if a.stampIn[v] != gen || a.stampOut[v] != gen {
		return false
	}
	in, out := a.uniqueIn[v], a.uniqueOut[v]
	return in >= 0 && out >= 0 &&
		alive(&a.edges[in]) && int32(a.edges[in].To) == v &&
		alive(&a.edges[out]) && int32(a.edges[out].From) == v
}

// ---------------------------------------------------------------- export ---

// Export materializes the arena's live edges as a Graph, renumbering nodes
// by first appearance in slot order. resolve maps an arena node to its
// representative (a union-find Find for collapsed construction); nil means
// identity. Arena nodes resolving to the terminals become Source and Sink;
// self-loops, edges out of the Sink, and edges into the Source are dropped,
// and capacities clamp to Inf — reproducing the historical builder output
// byte for byte when no compaction has run.
func (a *Arena) Export(resolve func(int32) int32) *Graph {
	out := New()
	out.Edges = make([]Edge, 0, a.liveEdges)
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
		if !alive(e) {
			continue
		}
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

// growDead returns a length-n []bool that keeps s's entries and reads false
// beyond them, reusing s's backing array if it fits.
func growDead(s []bool, n int) []bool {
	if cap(s) < n {
		ns := make([]bool, n)
		copy(ns, s)
		return ns
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		ns := make([]uint32, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}
