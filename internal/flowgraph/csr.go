package flowgraph

// CSR is the residual layout the max-flow solver runs on: g's network
// after one series–parallel round (paper §5.1), plus the map back to g.
//
// Nodes with exactly one in-edge and one out-edge, other than Source and
// Sink, are interior; every other node is kept and gets a dense id, in
// node order, so Source and Sink stay 0 and 1. A chain is a maximal path
// from one kept node to the next through interior nodes; its capacity is
// its minimum edge capacity, which bounds every flow along it. Chains
// between the same two kept nodes merge into one arc whose capacity is
// their sum. Both rewrites preserve the Source–Sink maximum flow.
//
// The reduced network has N nodes and one arc pair (2a, 2a+1) per arc a:
// arc 2a runs forward to To[2a], arc 2a+1 runs back to To[2a+1], the
// arc's origin. The arc ids incident to node r are
// HArcs[HStart[r]:HStart[r+1]]. A solver aliases these arrays and keeps
// only its residuals.
//
// The map back to g costs no per-edge column. Edges aliases g.Edges, so a
// CSR keeps g's edges alive for as long as it is kept.
// Node[v] is v's kept id, or ^e for an interior node whose out-edge is e,
// so a chain is walked edge by edge from its first edge (ChainHead,
// Next). Chains are numbered in the order of their first edges;
// ChainArc[c] is chain c's arc and ChainCap[c] its capacity.
//
// BuildCSR sizes a fresh CSR's slices once, from upper bounds, and grows
// a reused one's in place (spqr.Reduce lays out every round in one CSR).
type CSR struct {
	N      int
	HStart []int32
	HArcs  []int32
	To     []int32

	Edges    []Edge
	Node     []int32
	ChainArc []int32
	ChainCap []int64
}

// NumEdges reports the number of edges of the laid-out graph.
func (c *CSR) NumEdges() int { return len(c.Edges) }

// NumArcs reports the number of arcs of the reduced network.
func (c *CSR) NumArcs() int { return len(c.To) / 2 }

// ChainHead reports whether edge i is the first edge of a chain: whether
// it leaves a kept node.
func (c *CSR) ChainHead(i int) bool { return c.Node[c.Edges[i].From] >= 0 }

// Next returns the edge after e on e's chain, or -1 when e ends the chain
// at a kept node.
func (c *CSR) Next(e int) int {
	if x := c.Node[c.Edges[e].To]; x < 0 {
		return int(^x)
	}
	return -1
}

// Bytes reports the capacity of c's own arrays in bytes (Edges is g's).
func (c *CSR) Bytes() int64 {
	return 4*int64(cap(c.HStart)+cap(c.HArcs)+cap(c.To)+cap(c.Node)+cap(c.ChainArc)) +
		8*int64(cap(c.ChainCap))
}

// BuildCSR fills c with g's series–parallel-reduced layout, reusing c's
// backing arrays. It runs in O(V + E): one pass over the nodes and four
// over the edges, one of them the chain walks.
func (g *Graph) BuildCSR(c *CSR) {
	edges := g.Edges
	c.Edges = edges
	node := growI32(c.Node, g.NumNodes())
	c.Node = node

	// Degrees, saturating at 2: in-degree in bits 0–1, out-degree in
	// bits 2–3. Exactly one of each reads 5.
	clear(node)
	for i := range edges {
		e := &edges[i]
		if node[e.From]>>2 < 2 {
			node[e.From] += 4
		}
		if node[e.To]&3 < 2 {
			node[e.To]++
		}
	}
	kept := int32(0)
	for v, d := range node {
		if v > int(Sink) && d == 5 {
			node[v] = -1
			continue
		}
		node[v] = kept
		kept++
	}
	// Link each interior node to its one out-edge; count the chains, one
	// per edge leaving a kept node, and each kept node's out-chains.
	heads := growI32(c.HStart, int(kept)+1)
	clear(heads)
	chains := 0
	for i := range edges {
		from := edges[i].From
		if x := node[from]; x < 0 {
			node[from] = ^int32(i)
		} else {
			heads[x+1]++
			chains++
		}
	}
	c.ChainArc = growI32(c.ChainArc, chains)
	c.ChainCap = growI64(c.ChainCap, chains)

	// Walk every chain: its capacity, and for now its end in ChainArc.
	for i, ch := 0, 0; i < len(edges); i++ {
		if !c.ChainHead(i) {
			continue
		}
		capc, e := edges[i].Cap, i
		for next := c.Next(e); next >= 0; next = c.Next(e) {
			e = next
			capc = min(capc, edges[e].Cap)
		}
		c.ChainArc[ch] = node[edges[e].To]
		c.ChainCap[ch] = capc
		ch++
	}

	// Bucket the chains by head, then give each head one arc per distinct
	// end. The bucket and stamp share one scratch array: stamp holds, per
	// kept node w, the last arc laid out into w, so chains from one head
	// to w find their arc without a map. The CSR does not keep the
	// scratch, so it is garbage before the solve that follows. A first
	// pass over the buckets counts the arcs, so To and HArcs are sized
	// once, at exactly 2·arcs, and a fresh CSR never regrows.
	for r := int32(0); r < kept; r++ {
		heads[r+1] += heads[r]
	}
	scratch := make([]int32, int(kept)+chains)
	stamp, order := scratch[:kept], scratch[kept:]
	for i, ch := 0, int32(0); i < len(edges); i++ {
		if x := node[edges[i].From]; x >= 0 {
			order[heads[x]] = ch
			heads[x]++
			ch++
		}
	}
	for r := range stamp {
		stamp[r] = -1
	}
	arcs, start := 0, int32(0)
	for u := int32(0); u < kept; u++ {
		for _, ch := range order[start:heads[u]] {
			if w := c.ChainArc[ch]; stamp[w] != u {
				stamp[w] = u
				arcs++
			}
		}
		start = heads[u]
	}
	for r := range stamp {
		stamp[r] = -1
	}
	to := c.To[:0]
	if cap(to) < 2*arcs {
		to = make([]int32, 0, 2*arcs)
	}
	start = 0
	for u := int32(0); u < kept; u++ {
		first := int32(len(to) / 2)
		for _, ch := range order[start:heads[u]] {
			w := c.ChainArc[ch]
			if stamp[w] < first {
				stamp[w] = int32(len(to) / 2)
				to = append(to, w, u)
			}
			c.ChainArc[ch] = stamp[w]
		}
		start = heads[u]
	}
	c.HStart, c.To = heads, to
	c.index(int(kept))
}

// index lays out the adjacency of the n-node view whose arcs are in To:
// arc 2a leaves its origin To[2a+1], arc 2a+1 leaves its head To[2a].
// Each node lists its arcs in arc order. HStart doubles as the insertion
// cursor, which leaves every entry at the next node's start, so one shift
// restores it.
func (c *CSR) index(n int) {
	c.N = n
	c.HStart = growI32(c.HStart, n+1)
	c.HArcs = growI32(c.HArcs, len(c.To))
	hs, harcs, to := c.HStart, c.HArcs, c.To
	clear(hs)
	for a := 0; a+1 < len(to); a += 2 {
		hs[to[a+1]+1]++
		hs[to[a]+1]++
	}
	for v := 0; v < n; v++ {
		hs[v+1] += hs[v]
	}
	for a := 0; a+1 < len(to); a += 2 {
		from, head := to[a+1], to[a]
		harcs[hs[from]] = int32(a)
		hs[from]++
		harcs[hs[head]] = int32(a + 1)
		hs[head]++
	}
	copy(hs[1:], hs[:n])
	hs[0] = 0
}
