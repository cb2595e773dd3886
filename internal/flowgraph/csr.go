package flowgraph

// CSR is the compressed-sparse-row residual layout shared between the
// graph core and the max-flow solver. Edge i has the arc pair (2i, 2i+1):
// arc 2i runs forward to To[2i], arc 2i+1 runs back to To[2i+1], the
// edge's origin. Cap holds one capacity per edge, Cap[i] for edge i; a
// reverse arc's capacity is always 0, so it is not stored. The arc ids
// incident to node v are HArcs[HStart[v]:HStart[v+1]]. A solver attaches
// to a CSR by aliasing the topology arrays and filling its residual array
// from Cap — the zero-copy handoff.
//
// A CSR is reusable: builders grow the slices in place, so a solver-owned
// CSR filled repeatedly stops allocating once sized for the largest graph.
type CSR struct {
	N      int
	HStart []int32
	HArcs  []int32
	To     []int32
	Cap    []int64
}

// NumEdges reports the number of forward edges in the view.
func (c *CSR) NumEdges() int { return len(c.Cap) }

// BuildCSR fills c with g's residual view, reusing c's backing arrays.
// Edge i of g becomes arc pair (2i, 2i+1), so flow results index back into
// g.Edges directly.
func (g *Graph) BuildCSR(c *CSR) {
	ne := len(g.Edges)
	c.To = growI32(c.To, 2*ne)
	c.Cap = growI64(c.Cap, ne)
	for i := range g.Edges {
		e := &g.Edges[i]
		c.To[2*i] = int32(e.To)
		c.To[2*i+1] = int32(e.From)
		c.Cap[i] = e.Cap
	}
	c.index(g.NumNodes())
}

// index lays out the adjacency of the n-node view whose arcs are in To:
// arc 2i leaves edge i's origin To[2i+1], arc 2i+1 leaves its head To[2i].
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
