package merge_test

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"flowcheck/internal/engine"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/kraft"
	"flowcheck/internal/lang"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/merge"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
	"flowcheck/internal/workload"
)

func chainGraph(site uint32, caps ...int64) *flowgraph.Graph {
	g := flowgraph.New()
	prev := flowgraph.Source
	for i, c := range caps {
		var next flowgraph.NodeID
		if i == len(caps)-1 {
			next = flowgraph.Sink
		} else {
			next = g.AddNode()
		}
		g.AddEdge(prev, next, c, flowgraph.Label{Site: site, Aux: uint8(i)})
		prev = next
	}
	return g
}

func TestMergeIdenticalGraphsSumsCapacity(t *testing.T) {
	g1 := chainGraph(1, 8, 3)
	g2 := chainGraph(1, 8, 3)
	m := merge.Graphs(g1, g2)
	if m.NumEdges() != 2 {
		t.Fatalf("merged edges = %d, want 2", m.NumEdges())
	}
	if f := maxflow.Compute(m).Flow; f != 6 {
		t.Fatalf("merged flow = %d, want 6 (3+3 at the bottleneck)", f)
	}
}

func TestMergeDisjointLabelsSideBySide(t *testing.T) {
	g1 := chainGraph(1, 5)
	g2 := chainGraph(2, 7)
	m := merge.Graphs(g1, g2)
	if f := maxflow.Compute(m).Flow; f != 12 {
		t.Fatalf("merged flow = %d, want 12 (parallel paths)", f)
	}
}

func TestMergeSingleGraphIsIdentity(t *testing.T) {
	g := chainGraph(1, 8, 3, 9)
	m := merge.Graphs(g)
	if maxflow.Compute(m).Flow != maxflow.Compute(g).Flow {
		t.Fatal("merging one graph changed its flow")
	}
}

func TestMergedFlowAtLeastMaxOfRuns(t *testing.T) {
	// Merging can only add capacity along shared labels: the merged flow is
	// at least each individual flow.
	g1 := chainGraph(1, 8, 2)
	g2 := chainGraph(1, 8, 5)
	m := merge.Graphs(g1, g2)
	f := maxflow.Compute(m).Flow
	if f < 5 {
		t.Fatalf("merged flow %d below individual max", f)
	}
}

// saltLabels is the retired exact-merge discipline, kept as the oracle
// of the side-by-side merge: exact builders once stamped each edge with a
// per-builder serial from 1 as its context word, and merging callers
// salted run k's serials with (k+1)<<44 so that runs could not collide.
// It returns g so stamped and salted as a collapsed graph, whose key
// merge then keeps every edge apart.
func saltLabels(g *flowgraph.Graph, run int) *flowgraph.Graph {
	c := g.Clone()
	c.Exact = false
	c.Ctx = make([]uint64, len(c.Edges))
	for i := range c.Ctx {
		c.Ctx[i] = uint64(run+1)<<44 | uint64(i+1)
	}
	return c
}

// checkExactMerge merges exact graphs side by side and by the salted key
// oracle, and requires the same nodes, edges and max flow of both.
func checkExactMerge(t *testing.T, graphs []*flowgraph.Graph) {
	t.Helper()
	salted := make([]*flowgraph.Graph, len(graphs))
	for i, g := range graphs {
		salted[i] = saltLabels(g, i)
	}
	got, want := merge.Graphs(graphs...), merge.Graphs(salted...)
	if !got.Exact || got.Ctx != nil || got.Validate() != nil {
		t.Fatalf("exact merge: Exact %v, %d context words, Validate %v", got.Exact, len(got.Ctx), got.Validate())
	}
	if got.NumNodes() != want.NumNodes() || !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("side by side: %d nodes %v\nsalted oracle: %d nodes %v", got.NumNodes(), got.Edges, want.NumNodes(), want.Edges)
	}
	if f, w := maxflow.Compute(got).Flow, maxflow.Compute(want).Flow; f != w {
		t.Fatalf("side-by-side flow %d, salted oracle %d", f, w)
	}
}

// Exact graphs merge side by side even when their labels agree: two
// identical one-edge runs are two parallel paths.
func TestExactMergeSideBySide(t *testing.T) {
	mk := func() *flowgraph.Graph {
		g := flowgraph.New()
		g.Exact = true
		g.AddEdge(flowgraph.Source, flowgraph.Sink, 1, flowgraph.Label{Site: 1})
		return g
	}
	if f := maxflow.Compute(merge.Graphs(mk(), mk())).Flow; f != 2 {
		t.Fatalf("exact merge flow = %d, want 2 (side-by-side paths)", f)
	}
	checkExactMerge(t, []*flowgraph.Graph{mk(), mk()})
	defer func() {
		if recover() == nil {
			t.Fatal("merging an exact and a collapsed graph did not panic")
		}
	}()
	merge.Graphs(mk(), chainGraph(1, 1))
}

// FuzzExactMerge checks the side-by-side exact merge against the salted
// key-merge oracle on random exact graphs: up to four of them, six bytes
// per edge, with self-loops, edges into Source or out of Sink, edgeless
// nodes and capacities past Inf among them.
func FuzzExactMerge(f *testing.F) {
	f.Add([]byte{3, 0, 2, 8, 1, 0, 2, 1, 1, 0, 2, 0, 5, 0, 0, 0, 0, 0, 1, 1, 0, 1, 7, 0})
	f.Add([]byte{2, 4, 3, 250, 9, 1, 3, 2, 255, 9, 1, 1, 1, 3, 16, 9, 2, 0, 0, 9, 1, 1, 2})
	f.Add([]byte{0, 1, 1, 200, 1, 1, 2, 2, 2, 100, 0, 0, 5, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var graphs []*flowgraph.Graph
		for len(data) > 0 && len(graphs) < 4 {
			n := 2 + int(data[0]%6)
			m := min(int(data[0]/6)%8, (len(data)-1)/6)
			g := flowgraph.New()
			g.Exact = true
			g.EnsureNodes(n)
			for e := range slices.Chunk(data[1:1+6*m], 6) {
				g.AddEdge(flowgraph.NodeID(int(e[0])%n), flowgraph.NodeID(int(e[1])%n), int64(e[2])<<(e[3]%52),
					flowgraph.Label{Site: uint32(e[4] % 4), Aux: e[5] % 2, Kind: flowgraph.EdgeKind(e[5] % 7)})
			}
			graphs = append(graphs, g)
			data = data[1+6*m:]
		}
		if len(graphs) == 0 {
			return // no graph, no mode: Graphs() is an empty collapsed graph
		}
		checkExactMerge(t, graphs)
	})
}

// TestExactMergeSizesStoreOnce merges eight exact graphs of 20 000
// edges each and caps the bytes the merge allocates at twice the merged
// edge store: the store is sized once from the input edge count, where
// growing it by append from empty allocated about four times its size.
func TestExactMergeSizesStoreOnce(t *testing.T) {
	var graphs []*flowgraph.Graph
	for run := range 8 {
		g := flowgraph.New()
		g.Exact = true
		prev := flowgraph.Source
		for i := range 20000 {
			next := g.AddNode()
			if i == 19999 {
				next = flowgraph.Sink
			}
			g.AddEdge(prev, next, int64(1+(i+run)%7), flowgraph.Label{Site: uint32(i % 300)})
			prev = next
		}
		graphs = append(graphs, g)
	}
	var before, after runtime.MemStats
	least := uint64(1 << 62)
	var merged *flowgraph.Graph
	for range 3 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		merged = merge.Graphs(graphs...)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	storeBytes := uint64(len(merged.Edges)) * uint64(unsafe.Sizeof(flowgraph.Edge{}))
	if len(merged.Edges) != 8*20000 {
		t.Fatalf("merged %d edges, want %d", len(merged.Edges), 8*20000)
	}
	if least > 2*storeBytes {
		t.Fatalf("exact merge allocated %d bytes for a %d-byte edge store; ceiling 2x", least, storeBytes)
	}
}

// The paper's §3.2 unsoundness example, end to end: a program that prints
// its secret byte in unary. Per-run analysis yields min(8, n+1) bits, which
// violates Kraft's inequality over all byte values; the merged graph's
// bound is consistent.
const unarySrc = `
int main() {
    char buf[1];
    read_secret(buf, 1);
    char n; n = buf[0];
    while (n--) putc('*');
    return 0;
}`

func TestUnaryBinaryConsistency(t *testing.T) {
	prog, err := lang.Compile("unary.mc", unarySrc)
	if err != nil {
		t.Fatal(err)
	}
	// Per-run bounds for a few representative inputs.
	var perRun []int64
	var graphs []*flowgraph.Graph
	inputs := []byte{0, 1, 2, 5, 150}
	for _, n := range inputs {
		res, err := engine.Analyze(prog, engine.Inputs{Secret: []byte{n}}, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(n) + 1
		if want > 8 {
			want = 8
		}
		if res.Bits != want {
			t.Fatalf("per-run bits for n=%d: %d, want min(8, n+1) = %d", n, res.Bits, want)
		}
		perRun = append(perRun, res.Bits)
		graphs = append(graphs, res.Graph)
	}

	// Hypothetically extending per-run results to all 256 inputs violates
	// Kraft: sum = 503/256 > 1 (§3.2).
	var all []int64
	for n := 0; n < 256; n++ {
		k := int64(n) + 1
		if k > 8 {
			k = 8
		}
		all = append(all, k)
	}
	if kraft.Satisfied(all) {
		t.Fatalf("per-run bounds should violate Kraft, sum = %v", kraft.Sum(all))
	}

	// The merged graph gives one jointly-sound bound >= 8 bits, and using
	// it for every run satisfies Kraft.
	m := merge.Graphs(graphs...)
	f := maxflow.Compute(m).Flow
	if f < 8 {
		t.Fatalf("merged bound %d < 8 is jointly unsound", f)
	}
	joint := make([]int64, 256)
	for i := range joint {
		joint[i] = f
	}
	if !kraft.Satisfied(joint) {
		t.Fatalf("uniform bound %d violates Kraft?!", f)
	}
}

// onlineBits is the online-accumulation oracle of §3.2: one tracker kept
// across runs with Reset, so each run's edges merge by label into the
// graph of the runs before it as it executes.
func onlineBits(t *testing.T, prog *vm.Program, inputs []engine.Inputs, opts taint.Options) int64 {
	t.Helper()
	tr := taint.New(opts)
	for i, in := range inputs {
		if i > 0 {
			tr.Reset()
		}
		m := vm.NewMachine(prog)
		m.SecretIn, m.PublicIn = in.Secret, in.Public
		tr.Attach(m)
		if err := m.Run(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	return maxflow.Compute(tr.Graph()).Flow
}

// Offline merge (this package) agrees with online multi-run analysis
// (one tracker with taint.Reset) on the bound, in both graph modes, and
// engine.AnalyzeBatch — the offline merge fanned across workers — reports
// the same bound at every worker count.
func TestOfflineMergeMatchesOnline(t *testing.T) {
	unary, err := lang.Compile("unary.mc", unarySrc)
	if err != nil {
		t.Fatal(err)
	}
	unaryIn := []engine.Inputs{
		{Secret: []byte{0}}, {Secret: []byte{3}}, {Secret: []byte{200}},
	}
	var compressIn []engine.Inputs
	for i := 0; i < 4; i++ {
		compressIn = append(compressIn, engine.Inputs{Secret: workload.PiWords(128 + 64*i)})
	}
	cases := []struct {
		name   string
		prog   *vm.Program
		inputs []engine.Inputs
		opts   taint.Options
	}{
		{"collapsed", unary, unaryIn, taint.Options{}},
		// Exact-mode edges are unique by position, so the offline merge
		// places runs side by side, as one online tracker accumulates
		// them.
		{"exact", unary, unaryIn, taint.Options{Exact: true}},
		{"compress", guest.Program("compress"), compressIn, taint.Options{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			online := onlineBits(t, c.prog, c.inputs, c.opts)
			var graphs []*flowgraph.Graph
			for _, in := range c.inputs {
				res, err := engine.Analyze(c.prog, in, engine.Config{Taint: c.opts})
				if err != nil {
					t.Fatal(err)
				}
				graphs = append(graphs, res.Graph)
			}
			offline := maxflow.Compute(merge.Graphs(graphs...)).Flow
			if offline != online {
				t.Fatalf("offline merge %d != online multi-run %d", offline, online)
			}
			for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
				batch, err := engine.AnalyzeBatch(c.prog, c.inputs, engine.Config{Taint: c.opts, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if batch.Bits != online {
					t.Fatalf("workers=%d: batch %d != online multi-run %d", w, batch.Bits, online)
				}
			}
		})
	}
}
