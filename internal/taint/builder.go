package taint

import (
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/unionfind"
)

// builder incrementally constructs a flow graph during execution, emitting
// directly into an arena-backed graph core (flowgraph.Arena).
//
// It implements both construction modes of paper §4.2/§5.2 with one
// mechanism. Every runtime value is a pair of arena nodes (the two halves
// of a split node); every edge carries a Label. In collapsed mode, edges
// with the same label are merged: their capacities accumulate in place and
// their endpoints' classes are unioned — the paper's almost-linear-time
// combination using a union-find structure (§3.2); the union-find runs in
// lockstep with arena node allocation, so element ids and node ids
// coincide. In exact mode every edge is given a unique label and no merging
// occurs.
//
// Value pairs are canonicalized per label in collapsed mode, so the
// builder's memory grows with code coverage (the number of distinct
// labels), not with run time — the property §5.2 relies on for analyzing
// long executions.
type builder struct {
	ar *flowgraph.Arena

	// uf unions collapsed-label endpoints lazily; classes are resolved only
	// at export. nil in exact mode, where no unions ever happen.
	uf *unionfind.UF

	// slots maps a label to its arena edge slot (collapsed mode only;
	// exact-mode labels are unique by construction, so no map is needed).
	slots map[flowgraph.Label]int32

	srcEl, sinkEl int32

	exact  bool
	serial uint64

	// canonVal maps a site label to its canonical value pair (collapsed
	// mode only).
	canonVal map[flowgraph.Label]valPair

	// attrib records, per final edge label, which secret-stream bytes fed
	// the Source edges emitted under that label (Options.AttributeSources
	// mode; nil otherwise). It is keyed on the label as stored in the
	// arena — after the exact-mode serial stamp — so exported edges look
	// their attribution up by Edge.Label directly.
	attrib map[flowgraph.Label][]flowgraph.SourceContrib

	implicitEdges int
}

type valPair struct {
	in, out int32
}

func newBuilder(exact, attribute bool) *builder {
	b := &builder{
		ar:    flowgraph.NewArena(),
		exact: exact,
	}
	b.srcEl = 0 // arena Source
	b.sinkEl = 1
	if !exact {
		b.uf = unionfind.New(2) // elements 0,1 mirror the terminal nodes
		b.slots = map[flowgraph.Label]int32{}
		b.canonVal = map[flowgraph.Label]valPair{}
	}
	if attribute {
		b.attrib = map[flowgraph.Label][]flowgraph.SourceContrib{}
	}
	return b
}

// reset empties the builder for an unrelated execution, keeping the
// union-find and map storage for reuse; the arena's next edge store is
// sized for the largest recent run. The attribution map is cleared, never truncated
// per label: its slices escape into SourceMaps built from the previous
// graph.
func (b *builder) reset() {
	b.ar.Reset()
	if b.uf != nil {
		b.uf.Reset(2)
	}
	clear(b.slots)
	clear(b.canonVal)
	clear(b.attrib)
	b.serial, b.implicitEdges = 0, 0
}

// element allocates a fresh graph element (used for region and chain nodes).
func (b *builder) element() int32 {
	el := b.ar.AddNode()
	if b.uf != nil {
		b.uf.MakeSet() // keep element ids and arena node ids in lockstep
	}
	return el
}

// addEdge records an information channel of cap bits from element `from` to
// element `to` under the given label.
func (b *builder) addEdge(from, to int32, cap int64, lbl flowgraph.Label) {
	if lbl.Kind == flowgraph.KindImplicit {
		b.implicitEdges++
	}
	if b.exact {
		b.serial++
		lbl.Ctx = b.serial
		b.ar.AddEdge(from, to, cap, lbl)
		return
	}
	if slot, ok := b.slots[lbl]; ok {
		b.ar.Accumulate(slot, cap)
		ef, et := b.ar.EdgeEnds(slot)
		b.uf.Union(int(ef), int(from))
		b.uf.Union(int(et), int(to))
		return
	}
	b.slots[lbl] = b.ar.AddEdge(from, to, cap, lbl)
}

// addSourceEdge is addEdge for Source-rooted secret-input edges, recording
// the emitting byte's secret-stream offset when attribution is enabled.
// streamOff < 0 marks an unattributed byte (memory marked secret with no
// stream position); every class view then keeps its capacity. Attribution
// is recorded against the label as finally stored — in exact mode that is
// the post-serial label, which addEdge would otherwise hide — which is why
// this cannot be layered on top of addEdge from the tracker.
func (b *builder) addSourceEdge(to int32, cap int64, lbl flowgraph.Label, streamOff int) {
	if b.attrib == nil {
		b.addEdge(b.srcEl, to, cap, lbl)
		return
	}
	if b.exact {
		b.serial++
		lbl.Ctx = b.serial
		b.ar.AddEdge(b.srcEl, to, cap, lbl)
	} else if slot, ok := b.slots[lbl]; ok {
		b.ar.Accumulate(slot, cap)
		ef, et := b.ar.EdgeEnds(slot)
		b.uf.Union(int(ef), int(b.srcEl))
		b.uf.Union(int(et), int(to))
	} else {
		b.slots[lbl] = b.ar.AddEdge(b.srcEl, to, cap, lbl)
	}
	b.attrib[lbl] = append(b.attrib[lbl], flowgraph.SourceContrib{Off: streamOff, Bits: cap})
}

// value creates (or, in collapsed mode, re-finds) the split node pair for a
// value produced at the given site label, charging capBits to its internal
// edge. Producers attach edges to in; consumers read from out.
func (b *builder) value(lbl flowgraph.Label, capBits int64) (in, out int32) {
	lbl.Kind = flowgraph.KindInternal
	if !b.exact {
		if vp, ok := b.canonVal[lbl]; ok {
			b.ar.Accumulate(b.slots[lbl], capBits)
			return vp.in, vp.out
		}
	}
	in = b.element()
	out = b.element()
	b.addEdge(in, out, capBits, lbl)
	if !b.exact {
		b.canonVal[lbl] = valPair{in: in, out: out}
	}
	return in, out
}

// build assembles the current state into a flowgraph, resolving each node
// to its union-find class representative in collapsed mode. It copies the
// arena's edges and does not consume the builder, so intermediate flows
// (§8.1's real-time mode) can be computed mid-run.
func (b *builder) build() *flowgraph.Graph { return b.ar.Export(b.resolve()) }

// resolve maps an arena node to its union-find class representative in
// collapsed mode; nil (identity) in exact mode.
func (b *builder) resolve() func(int32) int32 {
	if b.uf == nil {
		return nil
	}
	return func(v int32) int32 { return int32(b.uf.Find(int(v))) }
}
