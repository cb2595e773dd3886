package static

import (
	"testing"

	"flowcheck/internal/guest"
	"flowcheck/internal/vm"
)

func guestPrograms() []*vm.Program {
	var ps []*vm.Program
	for _, name := range guest.Names() {
		ps = append(ps, guest.Program(name))
	}
	return ps
}

// BenchmarkStaticGuests runs the whole static pass over every guest.
func BenchmarkStaticGuests(b *testing.B) {
	ps := guestPrograms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			Analyze(p)
		}
	}
}

// maxStaticAllocs bounds the allocations of one static pass over every
// guest. The pass made 9878 while every block, successor list, SCC and
// region scratch was its own allocation; it makes about 1480 now (about
// 1870 under the race detector), mostly per function and per channel.
const maxStaticAllocs = 2200

func TestStaticAllocs(t *testing.T) {
	ps := guestPrograms()
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range ps {
			Analyze(p)
		}
	})
	if allocs > maxStaticAllocs {
		t.Fatalf("static pass over %d guests made %.0f allocations, ceiling %d", len(ps), allocs, maxStaticAllocs)
	}
}
