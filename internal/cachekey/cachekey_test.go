package cachekey

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
	"flowcheck/internal/vm"
)

const srcA = `
int main() {
    char buf[1];
    read_secret(buf, 1);
    if (buf[0] > 10) { putc('y'); } else { putc('n'); }
    return 0;
}
`

const srcB = `
int main() {
    char buf[1];
    read_secret(buf, 1);
    if (buf[0] > 11) { putc('y'); } else { putc('n'); }
    return 0;
}
`

func TestProgramKeyDeterministic(t *testing.T) {
	p1, err := lang.Compile("a.mc", srcA)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := lang.Compile("a.mc", srcA)
	if err != nil {
		t.Fatal(err)
	}
	if Program(p1) != Program(p2) {
		t.Fatalf("identical source compiled twice produced different program keys")
	}
	if Program(p1) != Program(p1) {
		t.Fatalf("Program key is not deterministic for one value")
	}
}

func TestProgramKeySensitivity(t *testing.T) {
	p1, err := lang.Compile("a.mc", srcA)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := lang.Compile("a.mc", srcB)
	if err != nil {
		t.Fatal(err)
	}
	if Program(p1) == Program(p2) {
		t.Fatalf("different programs share a program key")
	}
	// Same logic, different filename: site tables differ, so diagnostics
	// rendered from cached results would differ — keys must too.
	p3, err := lang.Compile("b.mc", srcA)
	if err != nil {
		t.Fatal(err)
	}
	if Program(p1) == Program(p3) {
		t.Fatalf("programs with different site files share a program key")
	}
}

func TestInputsKeyFieldBoundaries(t *testing.T) {
	// Length prefixes must keep adjacent fields from aliasing.
	if Inputs([]byte("ab"), []byte("c")) == Inputs([]byte("a"), []byte("bc")) {
		t.Fatalf("inputs key aliases across the secret/public boundary")
	}
	if Inputs(nil, nil) != Inputs([]byte{}, []byte{}) {
		t.Fatalf("nil and empty inputs should share a key")
	}
	if Inputs([]byte{1}, nil) == Inputs(nil, []byte{1}) {
		t.Fatalf("secret and public bytes must not be interchangeable")
	}
}

func TestDomainSeparation(t *testing.T) {
	a := New("kind-a/v1").Int(7).Sum()
	b := New("kind-b/v1").Int(7).Sum()
	if a == b {
		t.Fatalf("identical payloads under different domains share a key")
	}
	if Source("f.mc", srcA) == Inputs([]byte("f.mc"), []byte(srcA)) {
		t.Fatalf("source and inputs domains collide")
	}
}

func TestShortIsPrefix(t *testing.T) {
	k := New("x/v1").Str("payload").Sum()
	if len(k.Short()) != 12 || k.String()[:12] != k.Short() {
		t.Fatalf("Short() = %q is not the 12-hex-char prefix of %q", k.Short(), k.String())
	}
}

// fieldByField is Program as a sequence of Hasher writes, one per field:
// the encoding the chunked Program must reproduce.
func fieldByField(p *vm.Program) Key {
	h := New("program/v1")
	h.Int(int64(p.Entry))
	h.Int(int64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		h.Uint(uint64(in.Op)<<32 | uint64(in.W)<<24 | uint64(in.A)<<16 | uint64(in.B)<<8 | uint64(in.C))
		h.Uint(uint64(uint32(in.Imm))<<32 | uint64(in.Site))
	}
	h.Bytes(p.Data)
	h.Int(int64(len(p.Sites)))
	for _, s := range p.Sites {
		h.Str(s.File).Int(int64(s.Line)).Str(s.Fn)
	}
	h.Int(int64(len(p.Funcs)))
	for _, f := range p.Funcs {
		h.Str(f.Name).Int(int64(f.Entry)).Int(int64(f.End))
	}
	return h.Sum()
}

// TestProgramKeyMatchesFieldByField compares the chunked Program with
// field-by-field hashing on programs whose code, data and tables cross
// chunk boundaries at every offset, including strings and data longer
// than a chunk.
func TestProgramKeyMatchesFieldByField(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	long := strings.Repeat("x", 3*chunkSize+5)
	for trial := 0; trial < 200; trial++ {
		p := &vm.Program{Entry: rng.Intn(100)}
		for range rng.Intn(600) {
			p.Code = append(p.Code, vm.Instr{Op: vm.Op(rng.Intn(40)), W: uint8(rng.Intn(4)), A: uint8(rng.Intn(8)),
				B: uint8(rng.Intn(8)), C: uint8(rng.Intn(8)), Imm: rng.Int31() - 1<<30, Site: uint32(rng.Intn(50))})
		}
		p.Data = make([]byte, rng.Intn(2*chunkSize))
		rng.Read(p.Data)
		for i := range rng.Intn(40) {
			file := fmt.Sprint("f", i, ".mc")
			if rng.Intn(20) == 0 {
				file = long[:rng.Intn(len(long))]
			}
			p.Sites = append(p.Sites, vm.SiteInfo{File: file, Line: rng.Intn(1000), Fn: fmt.Sprint("fn", rng.Intn(9))})
		}
		for i := range rng.Intn(10) {
			p.Funcs = append(p.Funcs, vm.FuncInfo{Name: fmt.Sprint("fn", i), Entry: rng.Intn(100), End: rng.Intn(100)})
		}
		if got, want := Program(p), fieldByField(p); got != want {
			t.Fatalf("trial %d: chunked key %s, field-by-field %s", trial, got.Short(), want.Short())
		}
	}
}

// BenchmarkProgramKey hashes every guest program.
func BenchmarkProgramKey(b *testing.B) {
	var ps []*vm.Program
	for _, n := range guest.Names() {
		ps = append(ps, guest.Program(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			Program(p)
		}
	}
}
