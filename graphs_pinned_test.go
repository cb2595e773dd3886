package flowcheck

// graphs_pinned_test.go pins the constructed flow graphs themselves, not
// just their flow values: node count, bound, every edge, the context column
// and the minimum cut are hashed per case and compared against
// testdata/graphs.pinned. A refactor of graph construction (taint, the
// arena, merge) that changes any graph byte for byte fails here even when
// every flow value survives.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

var pinnedModes = []struct {
	name string
	opts taint.Options
}{
	{"collapsed", taint.Options{}},
	{"exact", taint.Options{Exact: true}},
	{"context", taint.Options{ContextSensitive: true}},
}

// graphHash hashes a result's graph, bound and minimum cut.
func graphHash(res *engine.Result) string {
	var b []byte
	w := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	g := res.Graph
	w(int64(g.NumNodes()))
	w(res.Bits)
	w(int64(len(g.Edges)))
	for _, e := range g.Edges {
		w(int64(e.From))
		w(int64(e.To))
		w(e.Cap)
		w(int64(e.Label.Site) | int64(e.Label.Aux)<<32 | int64(e.Label.Kind)<<40)
	}
	w(int64(len(g.Ctx)))
	for _, c := range g.Ctx {
		w(int64(c))
	}
	if res.Cut == nil {
		w(-1)
	} else {
		w(int64(len(res.Cut.EdgeIndex)))
		for _, i := range res.Cut.EdgeIndex {
			w(int64(i))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

func TestGeneratedGraphsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-mode compress is slow")
	}
	var got []string
	record := func(name string, res *engine.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, name+" "+graphHash(res))
	}
	for _, m := range pinnedModes {
		cfg := engine.Config{Taint: m.opts}
		for _, name := range guest.Names() {
			secret, public, ok := guest.SampleInputs(name)
			if !ok {
				t.Fatalf("no sample inputs for %q", name)
			}
			res, err := engine.Analyze(guest.Program(name), engine.Inputs{Secret: secret, Public: public}, cfg)
			record(fmt.Sprintf("guest/%s/%s", name, m.name), res, err)
		}

		text := workload.PiWords(640)
		var windows []engine.Inputs
		for i := 0; i < 6; i++ {
			windows = append(windows, engine.Inputs{Secret: text[64*i : 64*i+320]})
		}
		res, err := engine.AnalyzeBatch(guest.Program("compress"), windows, cfg)
		record("batch/compress/"+m.name, res, err)

		for seed := int64(0); seed < 200; seed++ {
			src := genProgram(seed)
			prog, err := Compile("fuzz.mc", src)
			if err != nil {
				t.Fatalf("seed %d does not compile: %v", seed, err)
			}
			var inputs []engine.Inputs
			for _, s := range []byte{0, 37, 128, 255} {
				inputs = append(inputs, engine.Inputs{Secret: []byte{s}})
			}
			res, err := engine.AnalyzeBatch(prog, inputs, cfg)
			record(fmt.Sprintf("gen/%d/%s", seed, m.name), res, err)
		}
	}

	f, err := os.Open("testdata/graphs.pinned")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d graphs hashed, %d pinned", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("graph changed: got %q, pinned %q", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d graphs differ from testdata/graphs.pinned", bad, len(got))
	}
}
