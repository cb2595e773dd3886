// Package merge combines flow graphs from multiple executions into a single
// graph whose maximum flow is a sound bound for the whole set of runs
// (paper §3.2).
//
// Independently-analyzed runs can be individually sound but jointly
// inconsistent: each run's minimum cut may fall in a different place,
// which amounts to using a different code per run and can violate Kraft's
// inequality. Merging identifies edges that carry the same key (static
// code location plus context word) across collapsed runs, sums their
// capacities, and unifies their endpoints — the same collapsing
// flowgraph.Arena performs within a run — after which any cut is
// consistently placed for every run at once. Exact-mode edges are unique
// by position, so exact runs merge side by side.
package merge

import "flowcheck/internal/flowgraph"

// Graphs merges any number of flow graphs, all exact or all collapsed
// (Graph.Exact); it panics on a mix. Collapsed graphs merge by key: edges
// with identical keys (label and context word) are replaced by a single
// edge whose capacity is the (saturating) sum of the originals, and the
// nodes those edges connect are unified. Exact graphs merge side by side:
// every edge is its own, and only Source and Sink are shared. Either way
// the merged graph numbers its nodes by first appearance and drops
// self-loops, edges out of Sink and edges into Source.
//
// The merge replays every edge into one arena, whose key index does the
// merging; classes are resolved once, when the merged graph takes over
// the arena's edge store.
func Graphs(graphs ...*flowgraph.Graph) *flowgraph.Graph {
	exact := len(graphs) > 0 && graphs[0].Exact
	most, edges := 0, 0
	for _, g := range graphs {
		if g.Exact != exact {
			panic("merge: exact and collapsed graphs in one merge")
		}
		most = max(most, g.NumNodes())
		edges += len(g.Edges)
	}
	ar := flowgraph.NewArena(exact)
	if exact {
		// Every edge of an exact graph is its own: size the store once.
		ar.Reserve(edges)
	}
	buf := make([]int32, most)
	for _, g := range graphs {
		// Fresh arena nodes for this graph's nodes, with Source and Sink
		// mapped to the shared terminals.
		local := buf[:g.NumNodes()]
		for i := range local {
			local[i] = -1
		}
		local[flowgraph.Source] = 0
		local[flowgraph.Sink] = 1
		el := func(n flowgraph.NodeID) int32 {
			if local[n] < 0 {
				local[n] = ar.AddNode()
			}
			return local[n]
		}
		for i := range g.Edges {
			e := &g.Edges[i]
			ar.AddEdge(el(e.From), el(e.To), e.Cap, g.Key(i))
		}
	}
	return ar.Take()
}
