// Package merge combines flow graphs from multiple executions into a single
// graph whose maximum flow is a sound bound for the whole set of runs
// (paper §3.2).
//
// Independently-analyzed runs can be individually sound but jointly
// inconsistent: each run's minimum cut may fall in a different place,
// which amounts to using a different code per run and can violate Kraft's
// inequality. Merging identifies edges that carry the same label (static
// code location plus optional calling-context hash) across runs, sums their
// capacities, and unifies their endpoints with a union-find structure —
// after which any cut is consistently placed for every run at once.
package merge

import (
	"fmt"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/unionfind"
)

// saltShift positions the salt above the bits exact-mode serials and
// context hashes legitimately occupy; see SaltLabels.
const saltShift = 44

// MaxSalt is the largest salt SaltLabels accepts: the salt field above bit
// saltShift holds 64-44 = 20 bits.
const MaxSalt = uint64(1)<<(64-saltShift) - 1

// SaltError reports a SaltLabels call that would overflow the Ctx salt
// field or collide with a label's existing Ctx bits.
type SaltError struct {
	Salt uint64
	// Edge is the index of the offending edge, or -1 when the salt itself
	// is out of range.
	Edge int
	Ctx  uint64
}

func (e *SaltError) Error() string {
	if e.Edge < 0 {
		return fmt.Sprintf("merge: salt %d exceeds the %d-bit salt field (max %d)", e.Salt, 64-saltShift, MaxSalt)
	}
	return fmt.Sprintf("merge: edge %d Ctx %#x already uses bit %d or above; salting with %d would collide", e.Edge, e.Ctx, saltShift, e.Salt)
}

// SaltLabels offsets every edge label's Ctx in g by salt<<44, in place.
//
// Exact-mode builders number their edges with a per-builder serial starting
// at 1, so graphs produced by different trackers (as in the engine's
// parallel batch path) carry colliding Ctx values that Graphs would wrongly
// unify. Salting each run's graph with a distinct value keeps the labels
// disjoint, so the runs merge side by side — exactly how a single
// exact-mode tracker numbers successive runs online. Collapsed-mode graphs
// must not be salted: there the label is the intentional merge key.
//
// The salt occupies Ctx bits [44, 64); SaltLabels returns a *SaltError
// (leaving g unmodified) if salt needs more than 20 bits, or if any edge's
// Ctx already reaches into the salt field — either would alias two
// different (salt, serial) pairs onto one label and silently under-count
// the merged flow.
func SaltLabels(g *flowgraph.Graph, salt uint64) error {
	if salt > MaxSalt {
		return &SaltError{Salt: salt, Edge: -1}
	}
	shifted := salt << saltShift
	for i := range g.Edges {
		if ctx := g.Edges[i].Label.Ctx; ctx+shifted < ctx || (ctx>>saltShift) != 0 {
			return &SaltError{Salt: salt, Edge: i, Ctx: ctx}
		}
	}
	for i := range g.Edges {
		g.Edges[i].Label.Ctx += shifted
	}
	return nil
}

// Graphs merges any number of labelled flow graphs. Edges with identical
// labels are replaced by a single edge whose capacity is the (saturating)
// sum of the originals, and the nodes those edges connect are unified.
// Unlabelled edges (Label zero value apart from Kind) merge like any
// others; graphs built in exact mode carry unique labels and therefore
// merge side by side without unification.
//
// The merge accumulates directly in an arena: label hits add capacity in
// place and union endpoints lazily; classes are resolved once, when the
// merged graph takes over the arena's edge store.
func Graphs(graphs ...*flowgraph.Graph) *flowgraph.Graph {
	ar := flowgraph.NewArena()
	uf := unionfind.New(2) // elements 0,1 mirror the arena terminals
	slots := map[flowgraph.Label]int32{}

	for _, g := range graphs {
		// Fresh elements for this graph's nodes, with Source and Sink
		// mapped to the shared terminals.
		local := make([]int32, g.NumNodes())
		for i := range local {
			local[i] = -1
		}
		local[flowgraph.Source] = 0
		local[flowgraph.Sink] = 1
		el := func(n flowgraph.NodeID) int32 {
			if local[n] < 0 {
				local[n] = ar.AddNode()
				uf.MakeSet()
			}
			return local[n]
		}
		for i := range g.Edges {
			e := &g.Edges[i]
			from, to := el(e.From), el(e.To)
			if slot, ok := slots[e.Label]; ok {
				ar.Accumulate(slot, e.Cap)
				sf, st := ar.EdgeEnds(slot)
				uf.Union(int(sf), int(from))
				uf.Union(int(st), int(to))
				continue
			}
			slots[e.Label] = ar.AddEdge(from, to, e.Cap, e.Label)
		}
	}

	return ar.Take(func(v int32) int32 { return int32(uf.Find(int(v))) })
}
