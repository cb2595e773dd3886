package engine

import (
	"context"
	"reflect"
	"testing"

	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/lang"
)

// dataImageSrc writes into its own initialised data segment: a string
// literal it overwrites with secret bytes, and a zero-initialised global
// counter. A pooled session whose Reset failed to restore the data image
// would print the previous run's bytes and a count above 1.
const dataImageSrc = `
int calls;
int main() {
    char *s;
    char buf[4];
    int i;
    read_secret(buf, 4);
    calls = calls + 1;
    putc('0' + calls);
    s = "hello";
    for (i = 0; i < 5; i = i + 1) putc(s[i]);
    for (i = 0; i < 4; i = i + 1) s[i] = buf[i];
    putc(s[0]);
    return 0;
}
`

func TestPooledSessionRestoresDataImage(t *testing.T) {
	prog, err := lang.Compile("dataimage.mc", dataImageSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := New(prog, Config{})
	s := a.acquire()
	defer a.release(s)
	in := Inputs{Secret: []byte("WXYZ")}
	run := func() *Result {
		res, err := a.runStages(context.Background(), s, a.sessionTracker(s), in, fault.Injection{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if string(first.Output) != "1helloW" {
		t.Fatalf("first run printed %q, want %q", first.Output, "1helloW")
	}
	second := run()
	if string(second.Output) != string(first.Output) || second.Bits != first.Bits {
		t.Fatalf("reused session: output %q, %d bits; first run: output %q, %d bits",
			second.Output, second.Bits, first.Output, first.Bits)
	}
}

// splitReadSrc reads the secret through two sites into two buffers, split
// where the public input says. A Source edge's label names the read site
// and the byte's address, so the stream offset attributed to the second
// site's labels depends on the input: a recycled tracker that reused the
// old attribution slices would overwrite the first graph's offsets.
const splitReadSrc = `
int main() {
    char n[1];
    char a[8];
    char b[8];
    int k;
    int i;
    read_public(n, 1);
    k = read_secret(a, n[0]);
    read_secret(b, 8 - k);
    for (i = 0; i < k; i = i + 1) putc(a[i]);
    for (i = 0; i < 8 - k; i = i + 1) putc(b[i]);
    return 0;
}
`

func cloneSourceMap(m *flowgraph.SourceMap) *flowgraph.SourceMap {
	c := &flowgraph.SourceMap{Edge: append([]int32(nil), m.Edge...)}
	for _, cs := range m.Contribs {
		c.Contribs = append(c.Contribs, append([]flowgraph.SourceContrib(nil), cs...))
	}
	return c
}

// A class graph's SourceMap outlives its run: the result cache keeps it
// for later class sets. Recycling the session's attributing tracker for
// another run must leave it untouched.
func TestClassSourceMapSurvivesTrackerRecycle(t *testing.T) {
	prog, err := lang.Compile("splitread.mc", splitReadSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := New(prog, Config{})
	s := a.acquire()
	defer a.release(s)
	secret := []byte("abcdefgh")
	cg, err := a.classGraphOn(context.Background(), s, Inputs{Secret: secret, Public: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cg.srcMap.Edge) < 2 {
		t.Fatalf("class graph attributes %d Source edges, want one per read site", len(cg.srcMap.Edge))
	}
	want := cloneSourceMap(cg.srcMap)
	if _, err := a.classGraphOn(context.Background(), s, Inputs{Secret: secret, Public: []byte{5}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cg.srcMap, want) {
		t.Fatalf("SourceMap changed when its tracker was recycled:\n got %+v\nwant %+v", cg.srcMap, want)
	}
}
