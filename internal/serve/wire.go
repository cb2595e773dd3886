package serve

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"

	"flowcheck/internal/flowgraph"
)

// WireGraph is a flow graph in transit: the packed little-endian edge
// list, base64 in JSON. Shards attach one to an AnalyzeResponse when the
// request set include_graph, and the fleet coordinator decodes and merges
// them into the distributed joint bound.
//
// The encoding is exact and order-preserving — edge order is what makes
// the location-keyed merge deterministic, and in an exact graph it is the
// edges' identity — so a decoded graph merges bit-identically to the
// in-process original.
type WireGraph struct {
	// Nodes is the graph's node count (source and sink included).
	Nodes int `json:"nodes"`
	// Edges is the edge count, redundantly with the packed data so
	// consumers can sanity-check before decoding.
	Edges int `json:"edges"`
	// Exact is the graph's Graph.Exact: its edges are unique by
	// position, it ships no context column, and a cross-run merge places
	// it side by side with the other runs.
	Exact bool `json:"exact,omitempty"`
	// Data is the base64 packed graph: wireMagic, 22 bytes per edge (from
	// u32, to u32, cap i64, site u32, aux u8, kind u8), then, for a
	// collapsed graph only, the context column at 8 bytes per edge (u64).
	Data string `json:"data"`
}

// wireMagic names the layout; a payload of another version fails Decode,
// so a fleet of mixed versions fails loudly rather than merging wrong
// keys.
const wireMagic = "FG2\n"
const wireEdgeSize = 22

// EncodeGraph packs a graph for transit. Nil stays nil, so callers can
// pass Result.Graph straight through.
func EncodeGraph(g *flowgraph.Graph) *WireGraph {
	if g == nil {
		return nil
	}
	n := len(g.Edges)
	size := len(wireMagic) + wireEdgeSize*n
	if !g.Exact {
		size += 8 * n
	}
	raw := make([]byte, size)
	copy(raw, wireMagic)
	off := len(wireMagic)
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint32(raw[off+0:], uint32(e.From))
		binary.LittleEndian.PutUint32(raw[off+4:], uint32(e.To))
		binary.LittleEndian.PutUint64(raw[off+8:], uint64(e.Cap))
		binary.LittleEndian.PutUint32(raw[off+16:], e.Label.Site)
		raw[off+20] = e.Label.Aux
		raw[off+21] = uint8(e.Label.Kind)
		off += wireEdgeSize
	}
	for _, c := range g.Ctx { // a collapsed graph's nil column stays all zero
		binary.LittleEndian.PutUint64(raw[off:], c)
		off += 8
	}
	return &WireGraph{
		Nodes: g.NumNodes(),
		Edges: n,
		Exact: g.Exact,
		Data:  base64.StdEncoding.EncodeToString(raw),
	}
}

// Decode unpacks the wire graph into a fresh, caller-owned graph,
// validating every field the in-process construction path would have
// panicked on — a corrupt or adversarial payload fails with an error,
// never a panic.
func (w *WireGraph) Decode() (*flowgraph.Graph, error) {
	if w == nil {
		return nil, fmt.Errorf("serve: nil wire graph")
	}
	raw, err := base64.StdEncoding.DecodeString(w.Data)
	if err != nil {
		return nil, fmt.Errorf("serve: wire graph base64: %w", err)
	}
	if len(raw) < len(wireMagic) || string(raw[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("serve: wire graph: bad magic (want %q)", wireMagic)
	}
	raw = raw[len(wireMagic):]
	perEdge := wireEdgeSize
	if !w.Exact {
		perEdge += 8
	}
	if len(raw)%perEdge != 0 {
		return nil, fmt.Errorf("serve: wire graph: %d trailing bytes", len(raw)%perEdge)
	}
	n := len(raw) / perEdge
	if n != w.Edges {
		return nil, fmt.Errorf("serve: wire graph: header says %d edges, data has %d", w.Edges, n)
	}
	if w.Nodes < 2 {
		return nil, fmt.Errorf("serve: wire graph: %d nodes (need source and sink)", w.Nodes)
	}
	g := flowgraph.New()
	g.EnsureNodes(w.Nodes)
	g.Exact = w.Exact
	g.Edges = make([]flowgraph.Edge, 0, n)
	for i := 0; i < n; i++ {
		off := i * wireEdgeSize
		from := int32(binary.LittleEndian.Uint32(raw[off+0:]))
		to := int32(binary.LittleEndian.Uint32(raw[off+4:]))
		cap := int64(binary.LittleEndian.Uint64(raw[off+8:]))
		if from < 0 || to < 0 || int(from) >= w.Nodes || int(to) >= w.Nodes {
			return nil, fmt.Errorf("serve: wire graph edge %d: endpoints (%d,%d) outside [0,%d)", i, from, to, w.Nodes)
		}
		if cap < 0 {
			return nil, fmt.Errorf("serve: wire graph edge %d: negative capacity %d", i, cap)
		}
		g.AddEdge(flowgraph.NodeID(from), flowgraph.NodeID(to), cap, flowgraph.Label{
			Site: binary.LittleEndian.Uint32(raw[off+16:]),
			Aux:  raw[off+20],
			Kind: flowgraph.EdgeKind(raw[off+21]),
		})
	}
	if !w.Exact {
		g.Ctx = make([]uint64, n)
		for i, off := 0, n*wireEdgeSize; i < n; i, off = i+1, off+8 {
			g.Ctx[i] = binary.LittleEndian.Uint64(raw[off:])
		}
	}
	return g, nil
}
