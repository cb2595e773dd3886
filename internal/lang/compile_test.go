package lang_test

import (
	"testing"

	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
)

// BenchmarkCompileGuests compiles every guest once per op: the front-end
// cost each process pays before it can analyse a guest.
func BenchmarkCompileGuests(b *testing.B) {
	names := guest.Names()
	srcs := make([]string, len(names))
	for i, n := range names {
		srcs[i] = guest.Source(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := range names {
			if _, err := lang.Compile(n+".mc", srcs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// maxCompileAllocs bounds the allocations of one sshauth compile. The
// front end made 5323 while the lexer built a map for every one-byte
// operator and the parser recursed through every precedence level per
// operand; it makes about 2100 now.
const maxCompileAllocs = 3000

func TestCompileAllocs(t *testing.T) {
	src := guest.Source("sshauth")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := lang.Compile("sshauth.mc", src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxCompileAllocs {
		t.Fatalf("compiling sshauth made %.0f allocations, ceiling %d", allocs, maxCompileAllocs)
	}
}
