package taint

import "flowcheck/internal/flowgraph"

// builder incrementally constructs a flow graph during execution, emitting
// directly into an arena-backed graph core (flowgraph.Arena).
//
// It implements both construction modes of paper §4.2/§5.2 with one
// mechanism. Every runtime value is a pair of arena nodes (the two halves
// of a split node); every edge carries a Key: its label and context word.
// In collapsed mode the arena merges edges with the same key: their
// capacities accumulate in place and their endpoints' classes are unioned
// — the paper's almost-linear-time combination using a union-find
// structure (§3.2). In exact mode every edge is unique by its arena slot
// and no merging occurs; the arena keeps no context word for it.
//
// Value pairs are canonicalized per label in collapsed mode, so the
// builder's memory grows with code coverage (the number of distinct
// keys), not with run time — the property §5.2 relies on for analyzing
// long executions.
type builder struct {
	// ar holds the edges; in collapsed mode a value key's slot holds the
	// value's canonical split-node pair as its ends.
	ar *flowgraph.Arena

	srcEl, sinkEl int32

	exact, attribute bool

	// attrib records, per edge key, which secret-stream bytes fed the
	// Source edges emitted under that key (collapsed mode with
	// Options.AttributeSources; nil otherwise), so exported edges look
	// their attribution up by Graph.Key.
	attrib map[flowgraph.Key][]flowgraph.SourceContrib
	// srcAttrib is exact mode's attribution: one contribution per Source
	// edge, in slot order. Export keeps every exact Source edge (its head
	// is a fresh node), in slot order, so the k-th Source edge of the
	// graph is the one in the k-th Source slot.
	srcAttrib []flowgraph.SourceContrib

	implicitEdges int
}

func newBuilder(exact, attribute bool) *builder {
	b := &builder{
		ar:        flowgraph.NewArena(exact),
		exact:     exact,
		attribute: attribute,
	}
	b.srcEl = 0 // arena Source
	b.sinkEl = 1
	if !exact && attribute {
		b.attrib = map[flowgraph.Key][]flowgraph.SourceContrib{}
	}
	return b
}

// reset empties the builder for an unrelated execution, keeping the
// arena's key index and union-find storage for reuse; the arena's next
// edge store is sized for the largest recent run. Attribution is cleared
// or released, never truncated: its slices escape into SourceMaps built
// from the previous graph.
func (b *builder) reset() {
	b.ar.Reset()
	clear(b.attrib)
	b.srcAttrib, b.implicitEdges = nil, 0
}

// addEdge records an information channel of cap bits from element `from` to
// element `to` under the given key.
func (b *builder) addEdge(from, to int32, cap int64, k flowgraph.Key) {
	if k.Kind == flowgraph.KindImplicit {
		b.implicitEdges++
	}
	b.ar.AddEdge(from, to, cap, k)
}

// addSourceEdge is addEdge for Source-rooted secret-input edges, recording
// the emitting byte's secret-stream offset when attribution is enabled.
// streamOff < 0 marks an unattributed byte (memory marked secret with no
// stream position); every class view then keeps its capacity.
func (b *builder) addSourceEdge(to int32, cap int64, k flowgraph.Key, streamOff int) {
	b.addEdge(b.srcEl, to, cap, k)
	if !b.attribute {
		return
	}
	c := flowgraph.SourceContrib{Off: streamOff, Bits: cap}
	if b.exact {
		b.srcAttrib = append(b.srcAttrib, c)
	} else {
		b.attrib[k] = append(b.attrib[k], c)
	}
}

// value creates (or, in collapsed mode, re-finds) the split node pair for a
// value produced at the given site key, charging capBits to its internal
// edge. Producers attach edges to in; consumers read from out. Internal
// keys enter the builder only here, so a collapsed key's edge slot still
// has the pair its first call created as its ends.
func (b *builder) value(k flowgraph.Key, capBits int64) (in, out int32) {
	k.Kind = flowgraph.KindInternal
	if slot, ok := b.ar.Slot(k); ok {
		b.ar.Accumulate(slot, capBits)
		return b.ar.EdgeEnds(slot)
	}
	in = b.ar.AddNode()
	out = b.ar.AddNode()
	b.addEdge(in, out, capBits, k)
	return in, out
}

// build assembles the current state into a flowgraph. It copies the
// arena's edges and does not consume the builder, so intermediate flows
// (§8.1's real-time mode) can be computed mid-run.
func (b *builder) build() *flowgraph.Graph { return b.ar.Export() }
