// Package flowgraph defines the flow network that represents the possible
// propagation of secret information through a program execution (paper §2).
//
// Edges represent values and carry capacities measured in bits; nodes
// represent operations. Two distinguished nodes exist in every graph: the
// Source (all secret inputs) and the Sink (all public outputs). The graph is
// a DAG: edges always point from older to newer operations.
//
// The single-output constraint of paper Figure 1 (a value used by several
// later operations still holds only its own width of information) is
// expressed by node splitting: callers allocate a node pair joined by an
// internal edge whose capacity is the value's secret bit count, attach
// inputs to the "in" half and consumers to the "out" half.
package flowgraph

import (
	"fmt"
	"io"
	"sort"
)

// NodeID identifies a node. Source and Sink are pre-allocated in every graph.
type NodeID int32

// Distinguished nodes present in every graph.
const (
	Source NodeID = 0
	Sink   NodeID = 1
)

// Inf is the capacity used for edges with no information-theoretic bound
// (for example the output-chain links of paper §2.2). It is small enough
// that sums of many Inf capacities cannot overflow int64.
const Inf int64 = 1 << 48

// EdgeKind records why an edge exists; it is used in reports, DOT output and
// cut descriptions.
type EdgeKind uint8

// Edge kinds.
const (
	KindData     EdgeKind = iota // direct data flow between operations
	KindInternal                 // node-splitting internal edge (value width)
	KindImplicit                 // implicit flow: branch or pointer operation
	KindRegion                   // enclosure-region node to region output
	KindChain                    // output-chain link
	KindInput                    // Source to a secret input value
	KindOutput                   // value to Sink at an output operation
)

var kindNames = [...]string{"data", "internal", "implicit", "region", "chain", "input", "output"}

func (k EdgeKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Label identifies the static program location an edge arose from, used for
// graph collapsing (§5.2) and multi-run merging (§3.2). Site is a static
// code-site identifier; Ctx is an optional 64-bit probabilistic
// calling-context hash (zero when context-insensitive); Aux distinguishes
// the several edges a single site emits (operand index, internal edge, ...).
// Ctx comes first so the smaller fields pack behind it: a Label is 16
// bytes and an Edge 32, which every graph, arena slot and cache estimate
// pays per edge.
type Label struct {
	Ctx  uint64
	Site uint32
	Aux  uint8
	Kind EdgeKind
}

// Edge is one capacity-limited information channel.
type Edge struct {
	From, To NodeID
	Cap      int64
	Label    Label
}

// Graph is a flow network under construction or analysis.
type Graph struct {
	numNodes int32
	Edges    []Edge
}

// New returns a graph containing only the Source and Sink nodes.
func New() *Graph {
	return &Graph{numNodes: 2}
}

// NumNodes reports the number of nodes, including Source and Sink.
func (g *Graph) NumNodes() int { return int(g.numNodes) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// AddNode allocates a new node.
func (g *Graph) AddNode() NodeID {
	id := NodeID(g.numNodes)
	g.numNodes++
	return id
}

// EnsureNodes grows the node space so that ids [0, n) are valid. It is used
// by graph mergers that compute node ids externally.
func (g *Graph) EnsureNodes(n int) {
	if int32(n) > g.numNodes {
		g.numNodes = int32(n)
	}
}

// AddEdge appends an edge and returns its index. Zero-capacity edges are
// legal (they arise from fully-public values) but carry no information.
func (g *Graph) AddEdge(from, to NodeID, cap int64, label Label) int {
	if from < 0 || to < 0 || int32(from) >= g.numNodes || int32(to) >= g.numNodes {
		panic(fmt.Sprintf("flowgraph: edge (%d,%d) outside node range [0,%d)", from, to, g.numNodes))
	}
	if cap < 0 {
		panic(fmt.Sprintf("flowgraph: negative capacity %d", cap))
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Cap: cap, Label: label})
	return len(g.Edges) - 1
}

// AddValueNode allocates a split node pair for a value holding `capBits`
// secret bits: it returns the in and out halves joined by an internal edge.
// Producers should point edges at in; consumers read from out.
func (g *Graph) AddValueNode(capBits int64, label Label) (in, out NodeID) {
	in = g.AddNode()
	out = g.AddNode()
	label.Kind = KindInternal
	g.AddEdge(in, out, capBits, label)
	return in, out
}

// OutDegree returns a slice mapping each node to its out-degree.
func (g *Graph) OutDegree() []int32 {
	deg := make([]int32, g.numNodes)
	for _, e := range g.Edges {
		deg[e.From]++
	}
	return deg
}

// InDegree returns a slice mapping each node to its in-degree.
func (g *Graph) InDegree() []int32 {
	deg := make([]int32, g.numNodes)
	for _, e := range g.Edges {
		deg[e.To]++
	}
	return deg
}

// TotalSinkCapacity returns the sum of capacities of edges entering Sink —
// the bound a plain tainting analysis would report (paper §7).
func (g *Graph) TotalSinkCapacity() int64 {
	var total int64
	for _, e := range g.Edges {
		if e.To == Sink {
			total += e.Cap
		}
	}
	return total
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{numNodes: g.numNodes, Edges: make([]Edge, len(g.Edges))}
	copy(c.Edges, g.Edges)
	return c
}

// Stats summarizes a graph for reports.
type Stats struct {
	Nodes, Edges  int
	ImplicitEdges int
	DataEdges     int
	SinkCapacity  int64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	for _, e := range g.Edges {
		switch e.Label.Kind {
		case KindImplicit:
			s.ImplicitEdges++
		case KindData:
			s.DataEdges++
		}
		if e.To == Sink {
			s.SinkCapacity += e.Cap
		}
	}
	return s
}

// WriteDOT emits the graph in Graphviz DOT format. Edges with zero capacity
// are omitted to keep renders readable. Output is deterministic regardless
// of construction order: edges are emitted sorted by endpoints, then label,
// then capacity, so graph diffs in CI are stable.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "flow"
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  n0 [label=\"source\",shape=doublecircle];\n  n1 [label=\"sink\",shape=doublecircle];\n", name); err != nil {
		return err
	}
	order := make([]int, len(g.Edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := g.Edges[order[x]], g.Edges[order[y]]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Label.Site != b.Label.Site {
			return a.Label.Site < b.Label.Site
		}
		if a.Label.Aux != b.Label.Aux {
			return a.Label.Aux < b.Label.Aux
		}
		if a.Label.Ctx != b.Label.Ctx {
			return a.Label.Ctx < b.Label.Ctx
		}
		if a.Label.Kind != b.Label.Kind {
			return a.Label.Kind < b.Label.Kind
		}
		return a.Cap < b.Cap
	})
	for _, i := range order {
		e := g.Edges[i]
		if e.Cap == 0 {
			continue
		}
		cap := fmt.Sprintf("%d", e.Cap)
		if e.Cap >= Inf {
			cap = "inf"
		}
		if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=\"%s:%s\"];\n", e.From, e.To, e.Label.Kind, cap); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Validate checks structural invariants: edge endpoints in range, no edges
// out of Sink or into Source, non-negative capacities. It returns the first
// violation found, or nil.
func (g *Graph) Validate() error {
	for i, e := range g.Edges {
		if int32(e.From) >= g.numNodes || int32(e.To) >= g.numNodes || e.From < 0 || e.To < 0 {
			return fmt.Errorf("edge %d: endpoint out of range: (%d,%d)", i, e.From, e.To)
		}
		if e.Cap < 0 {
			return fmt.Errorf("edge %d: negative capacity %d", i, e.Cap)
		}
		if e.From == Sink {
			return fmt.Errorf("edge %d: edge leaving sink", i)
		}
		if e.To == Source {
			return fmt.Errorf("edge %d: edge entering source", i)
		}
	}
	return nil
}
