package serve_test

import (
	"encoding/base64"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/serve"
	"flowcheck/internal/taint"
)

// wireTestGraph is a small graph of either mode; the collapsed one
// carries a context column.
func wireTestGraph(exact bool) *flowgraph.Graph {
	g := flowgraph.New()
	g.Exact = exact
	g.EnsureNodes(5)
	g.AddEdge(flowgraph.Source, 2, 8, flowgraph.Label{Site: 10, Kind: flowgraph.KindInput})
	g.AddEdge(2, 3, 1<<40, flowgraph.Label{Site: 11, Aux: 2})
	g.AddEdge(3, flowgraph.Sink, 7, flowgraph.Label{Site: 12, Kind: flowgraph.KindOutput})
	if !exact {
		g.Ctx = []uint64{0, 0xdeadbeef, 1 << 63}
	}
	return g
}

// checkWireRoundTrip requires a graph to come back from the wire bit-
// identical: nodes, edges, mode and context column.
func checkWireRoundTrip(t *testing.T, name string, g *flowgraph.Graph) *serve.WireGraph {
	t.Helper()
	w := serve.EncodeGraph(g)
	if w.Nodes != g.NumNodes() || w.Edges != g.NumEdges() || w.Exact != g.Exact {
		t.Fatalf("%s: wire header %+v does not match graph (%d nodes, %d edges, exact %v)", name, w, g.NumNodes(), g.NumEdges(), g.Exact)
	}
	got, err := w.Decode()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got.NumNodes() != g.NumNodes() || got.Exact != g.Exact || !reflect.DeepEqual(got.Edges, g.Edges) || !reflect.DeepEqual(got.Ctx, g.Ctx) {
		t.Fatalf("%s: decoded graph differs:\n got %d nodes exact %v %+v ctx %v\nwant %d nodes exact %v %+v ctx %v",
			name, got.NumNodes(), got.Exact, got.Edges, got.Ctx, g.NumNodes(), g.Exact, g.Edges, g.Ctx)
	}
	return w
}

// Both modes round-trip; only the collapsed graph ships its context
// column, 8 bytes per edge.
func TestWireGraphRoundTrip(t *testing.T) {
	size := map[bool]int{}
	for _, exact := range []bool{true, false} {
		w := checkWireRoundTrip(t, fmt.Sprintf("exact=%v", exact), wireTestGraph(exact))
		raw, _ := base64.StdEncoding.DecodeString(w.Data)
		size[exact] = len(raw)
	}
	if size[false]-size[true] != 3*8 {
		t.Fatalf("collapsed payload %d B, exact %d B: want the 3-edge context column, 24 B, between them", size[false], size[true])
	}
}

// The wire format must survive a real engine-produced graph exactly —
// edge order included, since order is what keys the deterministic merge
// and is an exact graph's identity.
func TestWireGraphRoundTripEngineGraph(t *testing.T) {
	for _, exact := range []bool{false, true} {
		res, err := engine.Analyze(guest.Program("count_punct"), engine.Inputs{Secret: []byte("hello, world")}, engine.Config{Taint: taint.Options{Exact: exact, ContextSensitive: true}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Graph.Exact != exact || (res.Graph.Ctx == nil) != exact {
			t.Fatalf("engine graph of exact=%v: Exact %v, %d context words", exact, res.Graph.Exact, len(res.Graph.Ctx))
		}
		checkWireRoundTrip(t, fmt.Sprintf("engine exact=%v", exact), res.Graph)
	}
}

func TestEncodeGraphNil(t *testing.T) {
	if serve.EncodeGraph(nil) != nil {
		t.Fatal("nil graph must encode to nil")
	}
	var w *serve.WireGraph
	if _, err := w.Decode(); err == nil {
		t.Fatal("nil wire graph must fail to decode")
	}
}

// Corrupt and adversarial payloads must fail with errors, never panic:
// the coordinator decodes bytes that crossed a network.
func TestWireGraphDecodeRejectsCorruption(t *testing.T) {
	good := serve.EncodeGraph(wireTestGraph(false))
	raw, _ := base64.StdEncoding.DecodeString(good.Data)

	corrupt := func(name string, mutate func(w *serve.WireGraph)) {
		t.Helper()
		w := *good
		mutate(&w)
		if _, err := w.Decode(); err == nil {
			t.Errorf("%s: decode succeeded on corrupt payload", name)
		}
	}

	corrupt("not base64", func(w *serve.WireGraph) { w.Data = "!!!" })
	corrupt("version 1 payload", func(w *serve.WireGraph) {
		old := append([]byte("FG1\n"), raw[len("FG2\n"):]...)
		w.Data = base64.StdEncoding.EncodeToString(old)
	})
	corrupt("collapsed payload marked exact", func(w *serve.WireGraph) { w.Exact = true })
	corrupt("bad magic", func(w *serve.WireGraph) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		w.Data = base64.StdEncoding.EncodeToString(bad)
	})
	corrupt("truncated", func(w *serve.WireGraph) {
		w.Data = base64.StdEncoding.EncodeToString(raw[:len(raw)-3])
	})
	corrupt("edge count mismatch", func(w *serve.WireGraph) { w.Edges++ })
	corrupt("too few nodes", func(w *serve.WireGraph) { w.Nodes = 1 })
	corrupt("endpoint out of range", func(w *serve.WireGraph) { w.Nodes = 3 }) // edge 2→3 now dangles
	corrupt("negative capacity", func(w *serve.WireGraph) {
		bad := append([]byte(nil), raw...)
		// First edge's cap is a little-endian i64 at offset magic+8.
		off := len("FG2\n") + 8
		for i := 0; i < 8; i++ {
			bad[off+i] = 0xff
		}
		w.Data = base64.StdEncoding.EncodeToString(bad)
	})

	// Error text should identify the wire layer, not leak a panic trace.
	w := *good
	w.Nodes = 1
	_, err := w.Decode()
	if err == nil || !strings.Contains(err.Error(), "wire graph") {
		t.Fatalf("corruption error %v should mention the wire graph", err)
	}
}
