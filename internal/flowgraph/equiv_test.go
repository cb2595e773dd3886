package flowgraph_test

// equiv_test.go is the online-compaction equivalence fuzz: over randomized
// layered DAGs, the max flow of an arena compacted *while edges stream in*
// must equal both the uncompacted arena's flow and the flow after a
// post-hoc whole-graph spqr.Reduce. This is the property that makes
// taint.Options.Compact safe to enable: compaction may only reshape the
// network, never change its capacity.

import (
	"math/rand"
	"testing"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/spqr"
)

// randDAG builds a random layered DAG edge list over extra intermediate
// nodes: every node gets a layer, edges go strictly forward in layer
// order, Source sits below all layers and Sink above, so the result is
// acyclic with Source source-only and Sink sink-only.
type testEdge struct {
	from, to flowgraph.NodeID
	cap      int64
}

func randDAG(rng *rand.Rand, nodes, edges int) []testEdge {
	layers := make([]int, nodes+2)
	layers[flowgraph.Source] = 0
	layers[flowgraph.Sink] = nodes + 1
	for i := 0; i < nodes; i++ {
		layers[2+i] = 1 + rng.Intn(nodes)
	}
	var out []testEdge
	for len(out) < edges {
		u := flowgraph.NodeID(rng.Intn(nodes + 2))
		v := flowgraph.NodeID(rng.Intn(nodes + 2))
		if u == v || layers[u] >= layers[v] {
			continue
		}
		out = append(out, testEdge{from: u, to: v, cap: int64(1 + rng.Intn(16))})
	}
	return out
}

// emit replays the edge list into a fresh arena, compacting every
// compactEvery edges when it is > 0. The protected set at each compaction
// point is exactly the nodes that still appear in un-emitted edges — the
// same contract the tracker's protectedSet fulfils online: a node may be
// compacted away only once no future edge can touch it.
func emit(edges []testEdge, nodes, compactEvery int) *flowgraph.Graph {
	a := flowgraph.NewArena()
	for i := 0; i < nodes; i++ {
		a.AddNode()
	}
	var serial uint64
	for i, e := range edges {
		serial++
		a.AddEdge(int32(e.from), int32(e.to), e.cap,
			flowgraph.Label{Site: 1, Ctx: serial, Kind: flowgraph.KindData})
		if compactEvery > 0 && (i+1)%compactEvery == 0 {
			prot := make([]bool, a.NumNodes())
			for _, future := range edges[i+1:] {
				prot[future.from] = true
				prot[future.to] = true
			}
			a.CompactSP(prot)
		}
	}
	return a.Export(nil)
}

func TestOnlineCompactionPreservesMaxFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 60; trial++ {
		nodes := 2 + rng.Intn(40)
		edges := 1 + rng.Intn(120)
		dag := randDAG(rng, nodes, edges)

		plain := emit(dag, nodes, 0)
		want := maxflow.Compute(plain, maxflow.Dinic).Flow

		for _, every := range []int{1, 3, 7, len(dag)} {
			online := emit(dag, nodes, every)
			if got := maxflow.Compute(online, maxflow.Dinic).Flow; got != want {
				t.Fatalf("trial %d: compact-every-%d flow = %d, uncompacted = %d",
					trial, every, got, want)
			}
		}

		reduced, _ := spqr.Reduce(plain)
		if got := maxflow.Compute(reduced, maxflow.Dinic).Flow; got != want {
			t.Fatalf("trial %d: post-hoc spqr flow = %d, uncompacted = %d", trial, got, want)
		}
	}
}

// epochPlan is a seeded multi-epoch emission: each epoch allocates fresh
// nodes and then emits edges among the terminals and the most recently
// allocated nodes (the execution's frontier), so older nodes fall out of
// use and become compactable between epochs, while nodes created after a
// pass sit beyond whatever node range that pass saw.
type epochPlan struct {
	newNodes []int
	edges    [][]testEdge
}

func randEpochPlan(rng *rand.Rand, epochs int) epochPlan {
	const window = 10
	var p epochPlan
	layer := []int{0, 1 << 30} // Source, Sink
	for ep := 0; ep < epochs; ep++ {
		k := 2 + rng.Intn(12)
		for i := 0; i < k; i++ {
			layer = append(layer, 1+ep*16+rng.Intn(24))
		}
		lo := len(layer) - window
		if lo < 2 {
			lo = 2
		}
		pick := func() flowgraph.NodeID {
			if r := rng.Intn(8); r < 2 {
				return flowgraph.NodeID(r)
			}
			return flowgraph.NodeID(lo + rng.Intn(len(layer)-lo))
		}
		var es []testEdge
		for m := 4 + rng.Intn(24); len(es) < m; {
			u, v := pick(), pick()
			if u == v || layer[u] >= layer[v] {
				continue
			}
			es = append(es, testEdge{from: u, to: v, cap: int64(1 + rng.Intn(16))})
			if rng.Intn(6) == 0 { // a parallel twin
				es = append(es, testEdge{from: u, to: v, cap: int64(1 + rng.Intn(16))})
			}
		}
		p.newNodes = append(p.newNodes, k)
		p.edges = append(p.edges, es)
	}
	return p
}

// run replays the plan into a, compacting after every epoch when compact
// is set (protecting exactly the nodes later epochs still use) and once
// more, unprotected, at the end.
func (p epochPlan) run(a *flowgraph.Arena, compact bool) {
	var serial uint64
	for ep, es := range p.edges {
		for i := 0; i < p.newNodes[ep]; i++ {
			a.AddNode()
		}
		for _, e := range es {
			serial++
			a.AddEdge(int32(e.from), int32(e.to), e.cap,
				flowgraph.Label{Site: uint32(ep), Ctx: serial, Kind: flowgraph.KindData})
		}
		if !compact {
			continue
		}
		prot := make([]bool, a.NumNodes())
		for _, later := range p.edges[ep+1:] {
			for _, e := range later {
				for _, v := range []flowgraph.NodeID{e.from, e.to} {
					if int(v) < len(prot) {
						prot[v] = true
					}
				}
			}
		}
		a.CompactSP(prot)
	}
	if compact {
		a.CompactSP(nil)
	}
}

// TestCompactionCountersPinned pins the reductions multi-epoch online
// compaction performs on seeded plans: the per-reduction op counts, the
// reclaimed and recycled totals and the live-edge peak, as recorded from
// an arena that maintained node degrees on every insertion and kill.
// Recounting the degrees per pass must not change a single reduction.
// Each plan is replayed on a fresh arena and on one recycled by Reset, and
// its max flow must equal the uncompacted arena's.
func TestCompactionCountersPinned(t *testing.T) {
	type counters struct {
		Series, Parallel, DeadEnds   int
		RecEdges, RecNodes, Recycled int
		PeakLiveEdges                int
		Flow                         int64
	}
	want := []counters{
		{12, 61, 54, 184, 81, 160, 69, 201},
		{17, 94, 35, 193, 59, 175, 78, 344},
		{10, 60, 52, 156, 87, 135, 42, 147},
		{7, 52, 51, 137, 73, 110, 39, 143},
		{14, 57, 58, 165, 96, 137, 34, 124},
		{19, 103, 38, 198, 68, 170, 52, 224},
		{19, 64, 62, 182, 104, 165, 38, 190},
		{7, 67, 67, 191, 88, 173, 42, 163},
	}
	reused := flowgraph.NewArena()
	for i, w := range want {
		seed := int64(i + 1)
		p := randEpochPlan(rand.New(rand.NewSource(seed)), 12)
		plain := flowgraph.NewArena()
		p.run(plain, false)
		flow := maxflow.Compute(plain.Export(nil), maxflow.Dinic).Flow

		fresh := flowgraph.NewArena()
		p.run(fresh, true)
		reused.Reset()
		p.run(reused, true)
		if w.Flow != flow {
			t.Errorf("seed %d: uncompacted flow %d, pinned %d", seed, flow, w.Flow)
		}
		for _, a := range []*flowgraph.Arena{fresh, reused} {
			m := a.Mem()
			got := counters{m.SeriesOps, m.ParallelOps, m.DeadEnds,
				m.ReclaimedEdges, m.ReclaimedNodes, m.RecycledSlots, m.PeakLiveEdges,
				maxflow.Compute(a.Export(nil), maxflow.Dinic).Flow}
			if got != w {
				t.Errorf("seed %d (reused arena %v): counters %+v, want %+v", seed, a == reused, got, w)
			}
		}
	}
}
