package detlint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The determinism-critical packages must lint clean: merged graphs are
// cached content-addressed and cache keys are content addresses. CI runs
// this test in the static job.
func TestDeterminismClean(t *testing.T) {
	for _, dir := range []string{"../merge", "../cachekey"} {
		fs, err := CheckDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range fs {
			t.Errorf("%s: %s", dir, f)
		}
	}
}

func check(t *testing.T, src string) []Finding {
	t.Helper()
	fs, err := CheckSource("fixture.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func kinds(fs []Finding) string {
	var ks []string
	for _, f := range fs {
		ks = append(ks, f.Kind)
	}
	return strings.Join(ks, ",")
}

func TestFlagsTimeNow(t *testing.T) {
	fs := check(t, `package p
import "time"
func f() time.Time { return time.Now() }
func g(t0 time.Time) time.Duration { return time.Since(t0) }
`)
	if kinds(fs) != "time-now,time-now" {
		t.Fatalf("findings = %v, want two time-now", fs)
	}
	if !strings.Contains(fs[0].Pos, "fixture.go:3") {
		t.Errorf("first finding at %s, want line 3", fs[0].Pos)
	}
}

func TestFlagsRenamedTimeImport(t *testing.T) {
	fs := check(t, `package p
import clock "time"
func f() clock.Time { return clock.Now() }
`)
	if kinds(fs) != "time-now" {
		t.Fatalf("findings = %v, want one time-now through the renamed import", fs)
	}
}

func TestIgnoresShadowedTime(t *testing.T) {
	fs := check(t, `package p
type fake struct{}
func (fake) Now() int { return 0 }
func f() int {
	time := fake{}
	return time.Now()
}
`)
	if len(fs) != 0 {
		t.Fatalf("findings = %v, want none: no time import, local shadow", fs)
	}
}

func TestFlagsMapRanges(t *testing.T) {
	fs := check(t, `package p
var global map[string]int
func f(param map[int]bool) {
	for range param {
	}
	local := make(map[string]int)
	for k := range local {
		_ = k
	}
	lit := map[string]int{"a": 1}
	for k, v := range lit {
		_, _ = k, v
	}
	for range map[int]int{1: 2} {
	}
	for range make(map[int]int) {
	}
	for range global {
	}
}
`)
	if len(fs) != 6 {
		t.Fatalf("findings = %v (%d), want 6 map-range", fs, len(fs))
	}
	for _, f := range fs {
		if f.Kind != "map-range" {
			t.Errorf("finding %v, want map-range", f)
		}
	}
}

func TestIgnoresSliceRanges(t *testing.T) {
	fs := check(t, `package p
func f(xs []int, s string, n int) {
	for i := range xs {
		_ = i
	}
	for _, c := range s {
		_ = c
	}
	for i := range n {
		_ = i
	}
	ys := make([]int, 4)
	for range ys {
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("findings = %v, want none over slices/strings/ints", fs)
	}
}

// Every exported function under internal/ must be referenced from another
// file of the module, or be on the explicit allowlist. CI runs this test
// next to the determinism lint.
func TestNoUnusedExports(t *testing.T) {
	fs, err := UnusedExports("../..", unusedAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Error(f)
	}
}

func TestFlagsUnusedExports(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/p/p.go": `package p
type T struct{ Field int }
type E struct{}
func Used() {}
func Unused() {}
func OnlySelf() { OnlySelf() }
func TestOnly() {}
func Allowed() {}
func Dynamic() {}
func (T) Method() {}
func (*T) Field() {}
func (E) Unwrap() error { return nil }
func unexported() {}
`,
		"internal/p/p_test.go": "package p\nfunc use() { TestOnly() }\n",
		"cmd/c/c.go": `package main
import "p"
type I interface{ Method() }
type S struct{ Field int }
func main() { p.Used(); var f = p.Dynamic; _ = f }
`,
		"cmd/c/skip_test.go":      "package main\n",
		"testdata/x.go":           "package x\nfunc f() { p.Unused() }\n",
		".hidden/y.go":            "package y\nfunc f() { p.Unused() }\n",
		"internal/q/q_test.go":    "package q\nfunc Helper() {}\n",
		"internal/q/notgo.txt":    "Unused",
		"internal/p/p2.go":        "package p\n",
		"internal/p/doc_extra.go": "// Unused is mentioned only in a comment.\npackage p\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := UnusedExports(root, []string{"p.Allowed", "p.Gone"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fs {
		if f.Kind != "unused-export" {
			t.Errorf("finding %v, want kind unused-export", f)
		}
		got = append(got, f.Msg[:strings.Index(f.Msg, " ")])
	}
	// Field is a struct field name elsewhere, not a reference; Method is an
	// interface method; Unwrap is called by the errors package.
	want := "p.Unused,p.OnlySelf,p.T.Field,allowlist"
	if strings.Join(got, ",") != want {
		t.Fatalf("findings %v\nwant %s", fs, want)
	}
}
