package taint

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flowcheck/internal/vm"
)

// mapWriteSet is the reference for a region's write set: the per-byte
// map regionWrite kept, with its coalescing of frame writes and its
// collapse into one covering range past autoTrackLimit addresses.
type mapWriteSet struct {
	declared         []vm.Range
	set              map[vm.Word]bool
	stackLo, stackHi vm.Word
	over             bool
	lo, hi           vm.Word
}

func (w *mapWriteSet) write(addr vm.Word, n int, sp, bp vm.Word) {
	for i := 0; i < n; i++ {
		a := addr + vm.Word(i)
		if slices.ContainsFunc(w.declared, func(d vm.Range) bool { return a >= d.Addr && a < d.Addr+d.Len }) {
			continue
		}
		switch {
		case a >= sp && a < bp:
			if w.stackLo == w.stackHi {
				w.stackLo, w.stackHi = a, a+1
			} else {
				w.stackLo, w.stackHi = min(w.stackLo, a), max(w.stackHi, a+1)
			}
		case w.over:
			w.lo, w.hi = min(w.lo, a), max(w.hi, a+1)
		default:
			w.set[a] = true
			if len(w.set) > autoTrackLimit {
				w.over, w.lo, w.hi = true, a, a+1
				for b := range w.set {
					w.lo, w.hi = min(w.lo, b), max(w.hi, b+1)
				}
			}
		}
	}
}

func (w *mapWriteSet) ranges(sp vm.Word) (out []vm.Range, outputs int) {
	if lo := max(w.stackLo, sp); w.stackHi > w.stackLo && w.stackHi > lo {
		out = append(out, vm.Range{Addr: lo, Len: w.stackHi - lo})
		outputs += int(w.stackHi - lo)
	}
	if w.over {
		return append(out, vm.Range{Addr: w.lo, Len: w.hi - w.lo}), outputs + int(w.hi-w.lo)
	}
	addrs := make([]vm.Word, 0, len(w.set))
	for a := range w.set {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	base := len(out)
	for _, a := range addrs {
		if n := len(out); n > base && out[n-1].Addr+out[n-1].Len == a {
			out[n-1].Len++
		} else {
			out = append(out, vm.Range{Addr: a, Len: 1})
		}
	}
	return out, outputs + len(addrs)
}

// A region's write set, its frame range and its collapse past
// autoTrackLimit addresses give the ranges the per-byte map gave, across
// regions that reuse one tracker's slots and bitmaps.
func TestRegionWriteSetMatchesMap(t *testing.T) {
	m := vm.NewMachineSize(&vm.Program{Code: []vm.Instr{{Op: vm.OpHalt}}}, 1<<20)
	tr := New(Options{})
	tr.Attach(m)
	rng := rand.New(rand.NewSource(1))
	overflows := 0
	for round := 0; round < 40; round++ {
		declared := []vm.Range{{Addr: 0x3000 + vm.Word(rng.Intn(64)), Len: vm.Word(rng.Intn(48))}}
		tr.EnterRegion(0, declared)
		ref := &mapWriteSet{declared: declared, set: map[vm.Word]bool{}}
		writes := 50 + rng.Intn(1000)
		if round%4 == 3 {
			writes = 6000 // past autoTrackLimit
		}
		for i := 0; i < writes; i++ {
			sp := 0xF000 - vm.Word(rng.Intn(64))
			bp := sp + vm.Word(rng.Intn(128))
			m.Regs[vm.SP], m.Regs[vm.BP] = sp, bp
			var addr vm.Word
			switch rng.Intn(4) {
			case 0:
				addr = 0x2FF0 + vm.Word(rng.Intn(0x2020)) // data pages and their edges
			case 1:
				addr = sp - 8 + vm.Word(rng.Intn(140)) // around the frame
			case 2:
				addr = declared[0].Addr - 4 + vm.Word(rng.Intn(56)) // around the declared range
			default:
				addr = 0x1000 + vm.Word(rng.Intn(0x8000))
			}
			n := []int{1, 1, 2, 4, 4, 4, 4, 64}[rng.Intn(8)]
			tr.regionWrite(addr, n)
			ref.write(addr, n, sp, bp)
		}
		sp := 0xF000 - vm.Word(rng.Intn(64))
		m.Regs[vm.SP] = sp
		r := &tr.regions[len(tr.regions)-1]
		overflows += btoi(r.autoOverflow)
		before := tr.stats.AutoOutputs
		got := tr.autoRanges(r, nil)
		want, outputs := ref.ranges(sp)
		if !slices.Equal(got, want) || tr.stats.AutoOutputs-before != outputs {
			t.Fatalf("round %d: ranges %v (%d outputs), want %v (%d)", round, got, tr.stats.AutoOutputs-before, want, outputs)
		}
		tr.regions = tr.regions[:len(tr.regions)-1]
	}
	if overflows == 0 || overflows == 40 {
		t.Fatalf("%d of 40 regions passed autoTrackLimit, want some but not all", overflows)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The write set collapses into one covering range at the
// (autoTrackLimit+1)-th distinct address, not before.
func TestRegionWriteSetLimit(t *testing.T) {
	m := vm.NewMachineSize(&vm.Program{Code: []vm.Instr{{Op: vm.OpHalt}}}, 1<<20)
	tr := New(Options{})
	tr.Attach(m)
	m.Regs[vm.SP], m.Regs[vm.BP] = 0xF000, 0xF100
	tr.EnterRegion(0, nil)
	r := &tr.regions[0]
	for i := 0; i < autoTrackLimit; i++ {
		tr.regionWrite(0x2000+2*vm.Word(i), 1) // no two adjacent
	}
	if r.autoOverflow || r.auto.n != autoTrackLimit {
		t.Fatalf("%d distinct addresses: overflow %v, count %d", autoTrackLimit, r.autoOverflow, r.auto.n)
	}
	tr.regionWrite(0x2000+2*autoTrackLimit, 1)
	if want := (vm.Range{Addr: 0x2000, Len: 2*autoTrackLimit + 1}); !r.autoOverflow || r.autoLo != want.Addr || r.autoHi != want.Addr+want.Len {
		t.Fatalf("one more: overflow %v, [%#x, %#x), want [%#x, %#x)", r.autoOverflow, r.autoLo, r.autoHi, want.Addr, want.Addr+want.Len)
	}
}

// The frame range and the write set stay separate ranges even when they
// touch, as they did when the set was a map.
func TestRegionWriteSetKeepsFrameRangeApart(t *testing.T) {
	m := vm.NewMachineSize(&vm.Program{Code: []vm.Instr{{Op: vm.OpHalt}}}, 1<<20)
	tr := New(Options{})
	tr.Attach(m)
	m.Regs[vm.SP], m.Regs[vm.BP] = 0xF000, 0xF100
	tr.EnterRegion(0, nil)
	tr.regionWrite(0xF000, 4) // in the frame
	m.Regs[vm.BP] = 0xF004
	tr.regionWrite(0xF004, 4) // above it
	got := tr.autoRanges(&tr.regions[0], nil)
	if want := []vm.Range{{Addr: 0xF000, Len: 4}, {Addr: 0xF004, Len: 4}}; !slices.Equal(got, want) {
		t.Fatalf("ranges %v, want %v", got, want)
	}
}
