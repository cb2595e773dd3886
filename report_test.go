package flowcheck

// Tests for the reporting surface: cut descriptions, sites, and the
// auxiliary result fields downstream tools consume.

import (
	"strings"
	"testing"
)

func TestDescribeCutSortedAndLocated(t *testing.T) {
	src := `
int main() {
    char buf[2];
    read_secret(buf, 2);
    putc(buf[0]);          // 8 bits
    if (buf[1] > 'm') putc('H'); else putc('L'); // 1 bit
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("aq")}, Config{})
	if res.Bits != 9 {
		t.Fatalf("bits = %d, want 9", res.Bits)
	}
	edges := res.DescribeCut()
	if len(edges) < 2 {
		t.Fatalf("cut edges = %d", len(edges))
	}
	// Sorted most-capacious first.
	for i := 1; i < len(edges); i++ {
		if edges[i].Bits > edges[i-1].Bits {
			t.Fatalf("cut not sorted: %+v", edges)
		}
	}
	// Each edge names a source location in the test file.
	for _, e := range edges {
		if !strings.Contains(e.Where, "test.mc:") {
			t.Fatalf("edge location %q not resolved", e.Where)
		}
	}
	// CutString embeds the total.
	if !strings.HasPrefix(res.CutString(), "9 bits = ") {
		t.Fatalf("CutString = %q", res.CutString())
	}
}

func TestCutSitesDeduplicated(t *testing.T) {
	src := `
int main() {
    char buf[4];
    read_secret(buf, 4);
    write_out(buf, 4); // one output site, four byte edges
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("abcd")}, Config{})
	sites := res.CutSites()
	seen := map[uint32]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatalf("duplicate site %d in %v", s, sites)
		}
		seen[s] = true
	}
	// Sites are sorted.
	for i := 1; i < len(sites); i++ {
		if sites[i] < sites[i-1] {
			t.Fatalf("sites not sorted: %v", sites)
		}
	}
}

func TestResultExecutionFacts(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc('y');
    return 42;
}`
	res := analyze(t, src, Inputs{Secret: []byte("z")}, Config{})
	if res.ExitCode != 42 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
	if string(res.Output) != "y" {
		t.Fatalf("output = %q", res.Output)
	}
	if res.Steps == 0 {
		t.Fatal("steps not recorded")
	}
	if res.Trap != nil {
		t.Fatalf("trap = %v", res.Trap)
	}
}

func TestTrapStillYieldsPartialResult(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc(buf[0]);
    int z; z = 0;
    return 1 / z; // traps after the leak
}`
	res, err := AnalyzeSource("t.mc", src, Inputs{Secret: []byte("k")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil {
		t.Fatal("expected trap")
	}
	if res.Bits != 8 {
		t.Fatalf("partial-run bits = %d, want 8 (the leak before the trap)", res.Bits)
	}
}

func TestMaxStepsConfig(t *testing.T) {
	src := `
int main() {
    while (1) { }
    return 0;
}`
	res, err := AnalyzeSource("t.mc", src, Inputs{}, Config{MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || !strings.Contains(res.Trap.Error(), "step limit") {
		t.Fatalf("trap = %v, want step limit", res.Trap)
	}
}

func TestAnalyzeBatchRequiresInputs(t *testing.T) {
	prog := mustCompile(t, `int main() { return 0; }`)
	if _, err := AnalyzeBatch(prog, nil, Config{}); err == nil {
		t.Fatal("empty input list should error")
	}
}
