// Package merge combines flow graphs from multiple executions into a single
// graph whose maximum flow is a sound bound for the whole set of runs
// (paper §3.2).
//
// Independently-analyzed runs can be individually sound but jointly
// inconsistent: each run's minimum cut may fall in a different place,
// which amounts to using a different code per run and can violate Kraft's
// inequality. Merging identifies edges that carry the same key (static
// code location plus context word) across collapsed runs, sums their
// capacities, and unifies their endpoints with a union-find structure —
// after which any cut is consistently placed for every run at once.
// Exact-mode edges are unique by position, so exact runs merge side by
// side.
package merge

import (
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/unionfind"
)

// Graphs merges any number of flow graphs, all exact or all collapsed
// (Graph.Exact); it panics on a mix. Collapsed graphs merge by key: edges
// with identical keys (label and context word) are replaced by a single
// edge whose capacity is the (saturating) sum of the originals, and the
// nodes those edges connect are unified. Exact graphs merge side by side:
// every edge is its own, and only Source and Sink are shared. Either way
// the merged graph numbers its nodes by first appearance and drops
// self-loops, edges out of Sink and edges into Source.
//
// The merge accumulates directly in an arena: key hits add capacity in
// place and union endpoints lazily; classes are resolved once, when the
// merged graph takes over the arena's edge store.
func Graphs(graphs ...*flowgraph.Graph) *flowgraph.Graph {
	exact := len(graphs) > 0 && graphs[0].Exact
	ar := flowgraph.NewArena(exact)
	var uf *unionfind.UF
	var slots map[flowgraph.Key]int32
	if !exact {
		uf = unionfind.New(2) // elements 0,1 mirror the arena terminals
		slots = map[flowgraph.Key]int32{}
	}

	for _, g := range graphs {
		if g.Exact != exact {
			panic("merge: exact and collapsed graphs in one merge")
		}
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
				if uf != nil {
					uf.MakeSet()
				}
			}
			return local[n]
		}
		for i := range g.Edges {
			e := &g.Edges[i]
			from, to := el(e.From), el(e.To)
			k := g.Key(i)
			if exact {
				ar.AddEdge(from, to, e.Cap, k)
				continue
			}
			if slot, ok := slots[k]; ok {
				ar.Accumulate(slot, e.Cap)
				sf, st := ar.EdgeEnds(slot)
				uf.Union(int(sf), int(from))
				uf.Union(int(st), int(to))
				continue
			}
			slots[k] = ar.AddEdge(from, to, e.Cap, k)
		}
	}

	if exact {
		return ar.Take(nil)
	}
	return ar.Take(func(v int32) int32 { return int32(uf.Find(int(v))) })
}
