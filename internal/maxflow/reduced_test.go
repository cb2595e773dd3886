package maxflow_test

// The reduced layout (Graph.BuildCSR) against the plain per-edge layout
// it replaced, kept here as the oracle: on every guest, in both graph
// modes, under class views and on a joint batch, and on random graphs
// built to stress the reduction, a solve of the reduced layout must
// report the oracle's bits and its exact cut — the same cut edges — and
// its per-edge flow (EdgeFlow) must pass the flow certificate on the
// graph itself, which works out the source side on its own.

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
	"flowcheck/internal/workload"
)

// plainLayout lays g out unreduced: every node kept under its own id and
// every edge a one-edge chain on its own arc pair (2i, 2i+1), each node
// listing its arcs in arc order — the per-edge layout Dinic ran on before
// the series–parallel round.
func plainLayout(g *flowgraph.Graph) *flowgraph.CSR {
	n, ne := g.NumNodes(), len(g.Edges)
	c := &flowgraph.CSR{
		N:        n,
		HStart:   make([]int32, n+1),
		HArcs:    make([]int32, 2*ne),
		To:       make([]int32, 2*ne),
		Edges:    g.Edges,
		Node:     make([]int32, n),
		ChainArc: make([]int32, ne),
		ChainCap: make([]int64, ne),
	}
	for v := range c.Node {
		c.Node[v] = int32(v)
	}
	for i, e := range g.Edges {
		c.To[2*i], c.To[2*i+1] = int32(e.To), int32(e.From)
		c.ChainArc[i], c.ChainCap[i] = int32(i), e.Cap
		c.HStart[e.From+1]++
		c.HStart[e.To+1]++
	}
	for v := 0; v < n; v++ {
		c.HStart[v+1] += c.HStart[v]
	}
	next := slices.Clone(c.HStart)
	for a := range c.To {
		from := c.To[a^1]
		c.HArcs[next[from]] = int32(a)
		next[from]++
	}
	return c
}

// solved is one solve of a layout: its result and per-edge flow.
type solved struct {
	*maxflow.Result
	edgeFlow []int64
}

// solve solves the layout c of g at view's capacities and reads its
// per-edge flow.
func solve(c *flowgraph.CSR, view *flowgraph.CapacityView) solved {
	s := maxflow.NewSolver()
	res, _ := s.Solve(c, view, 0)
	return solved{res, s.EdgeFlow(c)}
}

// oracle solves g's plain layout at view's capacities.
func oracle(g *flowgraph.Graph, view *flowgraph.CapacityView) solved {
	return solve(plainLayout(g), view)
}

// certify checks a solve against the flow certificate on g.
func (r solved) certify(g *flowgraph.Graph, view *flowgraph.CapacityView) error {
	return maxflow.Certify(g, view, r.Flow, r.edgeFlow, r.MinCut())
}

// sameCut reports how got differs from the oracle's want, or "".
func sameCut(got, want *maxflow.Result) string {
	gc, wc := got.MinCut(), want.MinCut()
	switch {
	case got.Flow != want.Flow:
		return fmt.Sprintf("flow %d, oracle %d", got.Flow, want.Flow)
	case gc.Capacity != wc.Capacity:
		return fmt.Sprintf("cut capacity %d, oracle %d", gc.Capacity, wc.Capacity)
	case !slices.Equal(gc.EdgeIndex, wc.EdgeIndex):
		return fmt.Sprintf("cut edges %v, oracle %v", gc.EdgeIndex, wc.EdgeIndex)
	}
	return ""
}

// checkReduced solves g's reduced layout at view and holds it to the
// oracle and the certificate.
func checkReduced(t *testing.T, name string, g *flowgraph.Graph, view *flowgraph.CapacityView) {
	t.Helper()
	var c flowgraph.CSR
	g.BuildCSR(&c)
	got := solve(&c, view)
	if diff := sameCut(got.Result, oracle(g, view).Result); diff != "" {
		t.Fatalf("%s: reduced layout: %s", name, diff)
	}
	if err := got.certify(g, view); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// checkEngine holds an engine answer, solved on the reduced layout, to
// the oracle on its own graph, and certifies it with the per-edge flow of
// a fresh solve of that layout.
func checkEngine(t *testing.T, name string, res *engine.Result) {
	t.Helper()
	if res.Cut == nil {
		t.Fatalf("%s: no cut (degraded: %v)", name, res.Degraded)
	}
	want := oracle(res.Graph, nil)
	if res.Bits != want.Flow || !slices.Equal(res.Cut.EdgeIndex, want.MinCut().EdgeIndex) {
		t.Fatalf("%s: %d bits and cut %v, oracle %d bits and cut %v", name, res.Bits, res.Cut.EdgeIndex, want.Flow, want.MinCut().EdgeIndex)
	}
	var c flowgraph.CSR
	res.Graph.BuildCSR(&c)
	if err := maxflow.Certify(res.Graph, nil, res.Bits, solve(&c, nil).edgeFlow, res.Cut); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// attributed runs prog once with every secret byte marked and Source
// attribution on — the class path's shared execution — and returns the
// graph with its source map.
func attributed(t *testing.T, prog *vm.Program, secret, public []byte, exact bool) (*flowgraph.Graph, *flowgraph.SourceMap) {
	t.Helper()
	tr := taint.New(taint.Options{Exact: exact, AttributeSources: true})
	m := vm.NewMachine(prog)
	m.SecretIn, m.PublicIn = secret, public
	tr.Attach(m)
	if err := m.Run(); err != nil {
		t.Logf("run ended early: %v", err) // a trapped run is still analyzable
	}
	g := tr.Graph()
	return g, tr.SourceMap(g)
}

func TestReducedLayoutMatchesPlain(t *testing.T) {
	type input struct {
		name string
		prog *vm.Program
		in   engine.Inputs
	}
	var inputs []input
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			t.Fatalf("guest %s has no sample inputs", name)
		}
		inputs = append(inputs, input{name, guest.Program(name), engine.Inputs{Secret: secret, Public: public}})
	}
	for _, n := range []int{768, 1536} {
		inputs = append(inputs, input{fmt.Sprintf("compress/%dB", n), guest.Program("compress"), engine.Inputs{Secret: workload.PiWords(n)}})
	}
	reduced, total := 0, 0
	for _, in := range inputs {
		for _, exact := range []bool{false, true} {
			name := fmt.Sprintf("%s exact=%v", in.name, exact)
			res, err := engine.Analyze(in.prog, in.in, engine.Config{Taint: taint.Options{Exact: exact}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkEngine(t, name, res)
			var c flowgraph.CSR
			res.Graph.BuildCSR(&c)
			reduced += c.NumArcs()
			total += c.NumEdges()

			g, sm := attributed(t, in.prog, in.in.Secret, in.in.Public, exact)
			n := len(in.in.Secret)
			checkReduced(t, name+" all classes", g, nil)
			for _, r := range []flowgraph.ByteRange{{Off: 0, Len: n / 4}, {Off: n / 4, Len: n/2 - n/4}, {Off: n / 2, Len: n - n/2}} {
				checkReduced(t, fmt.Sprintf("%s class %+v", name, r), g, sm.ClassView(g, r))
			}
		}
	}
	t.Logf("reduced layouts hold %d arcs for %d edges", reduced, total)

	// Joint batches: the merged graph of salted exact runs and of
	// collapsed runs, each solved by the engine on its reduced layout.
	for _, exact := range []bool{false, true} {
		var batch []engine.Inputs
		for _, n := range []int{300, 500, 700} {
			batch = append(batch, engine.Inputs{Secret: workload.PiWords(n)})
		}
		res, err := engine.AnalyzeBatch(guest.Program("compress"), batch, engine.Config{Taint: taint.Options{Exact: exact}})
		if err != nil {
			t.Fatal(err)
		}
		checkEngine(t, fmt.Sprintf("compress batch exact=%v", exact), res)
	}
}

// randomLayoutGraph builds a graph shaped to stress the reduction: a
// ranked backbone joined by direct edges, long chains of fresh interior
// nodes, parallel bundles, back edges that close cycles, and cycles of
// interior nodes connected to nothing. Capacities include 0 and Inf.
// The edges are shuffled so chains do not run in edge order.
func randomLayoutGraph(rng *rand.Rand) *flowgraph.Graph {
	g := flowgraph.New()
	capOf := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return flowgraph.Inf
		}
		return int64(1 + rng.Intn(20))
	}
	ids := []flowgraph.NodeID{flowgraph.Source}
	for i := rng.Intn(12); i > 0; i-- {
		ids = append(ids, g.AddNode())
	}
	ids = append(ids, flowgraph.Sink)
	chain := func(from, to flowgraph.NodeID, interior int) {
		for ; interior > 0; interior-- {
			n := g.AddNode()
			g.AddEdge(from, n, capOf(), flowgraph.Label{})
			from = n
		}
		g.AddEdge(from, to, capOf(), flowgraph.Label{})
	}
	for k := 1 + rng.Intn(40); k > 0; k-- {
		a := rng.Intn(len(ids) - 1)
		b := a + 1 + rng.Intn(len(ids)-a-1)
		switch rng.Intn(6) {
		case 0, 1:
			chain(ids[a], ids[b], 0)
		case 2:
			chain(ids[a], ids[b], 1+rng.Intn(6))
		case 3:
			for l := 2 + rng.Intn(3); l > 0; l-- {
				chain(ids[a], ids[b], rng.Intn(3))
			}
		case 4:
			if a > 0 && b < len(ids)-1 {
				chain(ids[b], ids[a], rng.Intn(3))
			}
		case 5:
			if rng.Intn(4) == 0 {
				first := g.AddNode()
				chain(first, first, rng.Intn(3))
			}
		}
	}
	rng.Shuffle(len(g.Edges), func(i, j int) { g.Edges[i], g.Edges[j] = g.Edges[j], g.Edges[i] })
	return g
}

// randomView overrides a random subset of g's edge capacities, or
// returns nil.
func randomView(rng *rand.Rand, g *flowgraph.Graph) *flowgraph.CapacityView {
	if rng.Intn(2) == 0 {
		return nil
	}
	v := &flowgraph.CapacityView{}
	for i := range g.Edges {
		if rng.Intn(4) == 0 {
			v.Edge = append(v.Edge, int32(i))
			v.Cap = append(v.Cap, []int64{0, int64(rng.Intn(20)), flowgraph.Inf}[rng.Intn(3)])
		}
	}
	return v
}

func FuzzReducedLayout(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		g := randomLayoutGraph(rng)
		view := randomView(rng, g)
		want := oracle(g, view)
		var c flowgraph.CSR
		g.BuildCSR(&c)
		s := maxflow.NewSolver()
		res, _ := s.Solve(&c, view, 0)
		got := solved{res, s.EdgeFlow(&c)}
		if diff := sameCut(got.Result, want.Result); diff != "" {
			t.Fatalf("on %d edges (%d arcs): %s", c.NumEdges(), c.NumArcs(), diff)
		}
		if err := got.certify(g, view); err != nil {
			t.Fatal(err)
		}
		if err := want.certify(g, view); err != nil {
			t.Fatalf("oracle: %v", err)
		}
		// EdgeFlow leaves the residuals as Solve left them: a second
		// call hands out the same flow.
		if again := s.EdgeFlow(&c); !slices.Equal(again, got.edgeFlow) {
			t.Fatal("a second EdgeFlow call reads another flow")
		}
	})
}

// A fresh reduced layout sizes To and HArcs at exactly two entries per
// arc, in both graph modes: BuildCSR counts the arcs before it allocates.
func TestReducedLayoutSizedByArcs(t *testing.T) {
	in := engine.Inputs{Secret: workload.PiWords(1024)}
	for _, exact := range []bool{false, true} {
		res, err := engine.Analyze(guest.Program("compress"), in, engine.Config{Taint: taint.Options{Exact: exact}})
		if err != nil {
			t.Fatal(err)
		}
		var c flowgraph.CSR
		res.Graph.BuildCSR(&c)
		if cap(c.To) != len(c.To) || cap(c.HArcs) != len(c.HArcs) || len(c.To) != 2*c.NumArcs() {
			t.Errorf("exact=%v: To %d/%d and HArcs %d/%d (len/cap) for %d arcs",
				exact, len(c.To), cap(c.To), len(c.HArcs), cap(c.HArcs), c.NumArcs())
		}
	}
}

// Extra class views of one class graph cost O(cut) in allocation, not
// O(E): a warmed solver keeps its residuals and view scratch, and a
// result holds only the flow value and the cut, so solving another view
// allocates the result and its cut edges. A per-edge array per view
// would cost 8 B × edges each.
func TestViewSolvesAllocateByCut(t *testing.T) {
	const n = 1024
	g, sm := attributed(t, guest.Program("compress"), workload.PiWords(n), nil, true)
	var c flowgraph.CSR
	g.BuildCSR(&c)
	var views []*flowgraph.CapacityView
	for off := 0; off < n; off += n / 8 {
		views = append(views, sm.ClassView(g, flowgraph.ByteRange{Off: off, Len: n / 8}))
	}
	s := maxflow.NewSolver()
	s.Solve(&c, views[0], 0) // sizes the residuals and the view scratch
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cutEdges := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, v := range views {
		res, _ := s.Solve(&c, v, 0)
		cutEdges += len(res.MinCut().EdgeIndex)
	}
	runtime.ReadMemStats(&after)
	k, bytes := uint64(len(views)), after.TotalAlloc-before.TotalAlloc
	t.Logf("%d views of a %d-edge class graph: %d B in all, %d cut edges", k, c.NumEdges(), bytes, cutEdges)
	// The cut's slice grows by doubling, so up to 16 B a cut edge, plus
	// the result, the cut and Dinic's closures per view.
	if limit := 1024*k + 16*uint64(cutEdges); bytes > limit {
		t.Fatalf("%d views allocate %d B, limit %d (%.2f B per edge per view)", k, bytes, limit, float64(bytes)/float64(k)/float64(c.NumEdges()))
	}
}
