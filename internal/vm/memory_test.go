package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"testing"
)

// memConfig is one guest-memory layout the fuzzer exercises.
type memConfig struct {
	size int
	data []byte
}

func imageBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// mixedImage spans five pages: a full page, an all-zero page, a page with
// a few non-zero bytes, another all-zero page, and a partial last page.
// The zero pages are absent from the shared image.
func mixedImage() []byte {
	b := make([]byte, 4*PageSize+100)
	copy(b, imageBytes(PageSize))
	b[2*PageSize+17], b[3*PageSize-1] = 0x5A, 0xA5
	copy(b[4*PageSize:], imageBytes(100))
	return b
}

var memConfigs = []memConfig{
	{size: int(DataBase) + 16, data: imageBytes(10)}, // a last partial page, as in robustness_test.go
	{size: 1 << 16, data: imageBytes(5000)},          // a data image straddling a page boundary
	{size: 5*PageSize + 7, data: imageBytes(3)},      // a short last page
	{size: 1 << 20, data: imageBytes(3 * PageSize)},  // an image ending on a page boundary
	{size: 1 << 16, data: mixedImage()},              // an image with all-zero pages
}

// accessCode holds one load and one store per width; the fuzzer runs a
// single instruction by setting PC, so every access goes through Step's
// bounds checks and traps.
var accessCode = []Instr{
	{Op: OpLoad, A: R0, B: R1, W: 1},
	{Op: OpLoad, A: R0, B: R1, W: 2},
	{Op: OpLoad, A: R0, B: R1, W: 4},
	{Op: OpStore, A: R1, B: R0, W: 1},
	{Op: OpStore, A: R1, B: R0, W: 2},
	{Op: OpStore, A: R1, B: R0, W: 4},
}

// flatMemory is the oracle: the flat byte array guest memory used to be.
type flatMemory struct {
	cfg memConfig
	mem []byte
}

func newFlatMemory(cfg memConfig) *flatMemory {
	f := &flatMemory{cfg: cfg, mem: make([]byte, cfg.size)}
	f.reset()
	return f
}

func (f *flatMemory) reset() {
	clear(f.mem)
	copy(f.mem[DataBase:], f.cfg.data)
}

func (f *flatMemory) inBounds(addr Word, n int) bool {
	return n >= 0 && addr >= DataBase && uint64(addr)+uint64(n) <= uint64(len(f.mem))
}

func (f *flatMemory) load(addr Word, n int) Word {
	var v Word
	for i := 0; i < n; i++ {
		v |= Word(f.mem[int(addr)+i]) << (8 * i)
	}
	return v
}

func (f *flatMemory) store(addr Word, n int, v Word) {
	for i := 0; i < n; i++ {
		f.mem[int(addr)+i] = byte(v >> (8 * i))
	}
}

// opReader decodes fuzz bytes into operations; reads past the end give 0.
type opReader struct{ b []byte }

func (r *opReader) done() bool { return len(r.b) == 0 }

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *opReader) word() Word {
	return Word(r.byte()) | Word(r.byte())<<8 | Word(r.byte())<<16 | Word(r.byte())<<24
}

// addr picks an address near a boundary that matters (below DataBase,
// DataBase, page edges, the end of memory, the top of the address space),
// or anywhere in memory.
func (r *opReader) addr(size int) Word {
	sel := r.byte()
	if sel >= 0xC0 {
		return r.word() % Word(size+8)
	}
	bases := []Word{0, DataBase, DataBase + PageSize, 3 * PageSize, Word(size) &^ pageMask, Word(size), ^Word(0)}
	return bases[int(sel)%len(bases)] + Word(int(r.byte()%10)-5)
}

var widths = [3]int{1, 2, 4}

func FuzzGuestMemory(f *testing.F) {
	f.Add([]byte{0, 3, 1, 5, 0xAA, 0xBB, 0xCC, 0xDD, 0, 1, 5})
	f.Add([]byte{1, 5, 2, 9, 1, 2, 3, 4, 2, 2, 0, 40, 4, 3, 2, 2, 9, 8})
	f.Add([]byte{2, 4, 4, 5, 9, 9, 9, 9, 12, 4, 5, 0, 0, 0, 0, 17, 0xC8, 1, 2, 3, 4, 200})
	f.Add([]byte{3, 3, 2, 2, 0x11, 0x22, 0x33, 0x44, 13, 3, 6, 64, 5, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cfg := memConfigs[int(ops[0])%len(memConfigs)]
		m := NewMachineSize(&Program{Code: accessCode, Data: cfg.data}, cfg.size)
		want := newFlatMemory(cfg)
		r := &opReader{b: ops[1:]}
		for step := 0; !r.done() && step < 256; step++ {
			op := r.byte()
			addr := r.addr(cfg.size)
			switch op % 5 {
			case 0, 1: // a traced-path load or store through Step
				n := widths[int(op/5)%3]
				idx := int(op/5) % 3
				store := op%5 == 1
				if store {
					idx += 3
				}
				v := r.word()
				m.PC, m.Regs[R0], m.Regs[R1] = idx, v, addr
				err := m.Step()
				if !want.inBounds(addr, n) {
					var trap *Trap
					if !errors.As(err, &trap) || trap.Kind != TrapFault {
						t.Fatalf("%d-byte access at %#x: got %v, want an out-of-bounds trap", n, addr, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%d-byte access at %#x: %v", n, addr, err)
				}
				if store {
					want.store(addr, n, v)
				} else if got, w := m.Regs[R0], want.load(addr, n); got != w {
					t.Fatalf("%d-byte load at %#x = %#x, want %#x", n, addr, got, w)
				}
			case 2: // Bytes returns a copy
				n := int(r.byte()) - 8
				got := m.Bytes(addr, n)
				if !want.inBounds(addr, n) {
					if got != nil {
						t.Fatalf("Bytes(%#x, %d) = %d bytes, want nil", addr, n, len(got))
					}
					continue
				}
				if !bytes.Equal(got, want.mem[addr:int(addr)+n]) || got == nil {
					t.Fatalf("Bytes(%#x, %d) = %x, want %x", addr, n, got, want.mem[addr:int(addr)+n])
				}
				for i := range got {
					got[i] ^= 0xFF // must not reach guest memory
				}
			case 3: // SetBytes
				data := make([]byte, r.byte()%64)
				for i := range data {
					data[i] = r.byte()
				}
				ok := want.inBounds(addr, len(data))
				if got := m.SetBytes(addr, data); got != ok {
					t.Fatalf("SetBytes(%#x, %d bytes) = %v, want %v", addr, len(data), got, ok)
				}
				if ok {
					copy(want.mem[addr:], data)
				}
			case 4:
				m.Reset()
				want.reset()
			}
		}
		size := cfg.size - int(DataBase)
		if got := m.Bytes(DataBase, size); !bytes.Equal(got, want.mem[DataBase:]) {
			t.Fatal("final guest memory differs from the flat oracle")
		}
	})
}

// A fresh machine allocates only its data pages; a write allocates one
// more page, and Reset restores it without dropping it.
func TestMemoryDemandPaged(t *testing.T) {
	allocated := func(m *Machine) int {
		n := 0
		for _, p := range m.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	m := NewMachine(&Program{Code: []Instr{{Op: OpHalt}}, Data: []byte("hello")})
	if got := allocated(m); got != 1 {
		t.Fatalf("fresh machine holds %d pages, want 1 (the data image)", got)
	}
	if v, _ := m.LoadWord(DefaultMemSize - 4); v != 0 {
		t.Fatalf("unwritten memory reads %#x, want 0", v)
	}
	if allocated(m) != 1 {
		t.Fatal("a read allocated a page")
	}
	m.StoreWord(DefaultMemSize-4, 0xDEADBEEF)
	m.SetBytes(DataBase, []byte("J"))
	if got := allocated(m); got != 2 {
		t.Fatalf("after two writes the machine holds %d pages, want 2", got)
	}
	m.Reset()
	if got := allocated(m); got != 2 {
		t.Fatalf("Reset dropped pages: %d left, want 2", got)
	}
	if v, _ := m.LoadWord(DefaultMemSize - 4); v != 0 {
		t.Fatalf("Reset left %#x on the stack page", v)
	}
	if got := m.Bytes(DataBase, 5); string(got) != "hello" {
		t.Fatalf("Reset left data image %q, want %q", got, "hello")
	}
	if len(m.dirty) != 0 {
		t.Fatalf("Reset left %d pages marked written", len(m.dirty))
	}
	binary.LittleEndian.PutUint32(m.Bytes(DataBase, 4), 0) // a copy: no effect
	if got := m.Bytes(DataBase, 5); string(got) != "hello" {
		t.Fatalf("writing through Bytes changed guest memory to %q", got)
	}
}

// A store into a data-image page, zero or not, is private to the machine
// that made it, and Reset restores the image. The two machines also run
// concurrently, so under -race a write to a shared page is reported.
func TestSharedImageCopyOnWrite(t *testing.T) {
	data := mixedImage()
	p := &Program{Code: accessCode, Data: data}
	const size = 1 << 16
	// One address on each of the image's five pages: full, zero, sparse,
	// zero and partial.
	addrs := []Word{DataBase + 8, 2*PageSize + 12, 3*PageSize + 16, 4*PageSize + 20, 5*PageSize + 24}
	// access runs accessCode[pc]: 2 loads a word into R0, 5 stores R0.
	access := func(m *Machine, pc int, addr, v Word) Word {
		m.PC, m.Regs[R0], m.Regs[R1] = pc, v, addr
		if err := m.Step(); err != nil {
			t.Errorf("access at %#x: %v", addr, err)
		}
		return m.Regs[R0]
	}

	a, b := NewMachineSize(p, size), NewMachineSize(p, size)
	for _, addr := range addrs {
		want := b.loadSlow(addr, 4)
		access(a, 5, addr, 0xDEADBEEF)
		if got := access(b, 2, addr, 0); got != want {
			t.Fatalf("a store by one machine at %#x shows in the other: %#x, want %#x", addr, got, want)
		}
		if got := access(a, 2, addr, 0); got != 0xDEADBEEF {
			t.Fatalf("store at %#x reads back %#x", addr, got)
		}
	}
	a.Reset()
	if got := a.Bytes(DataBase, len(data)); !bytes.Equal(got, data) {
		t.Fatal("Reset did not restore the data image")
	}

	var wg sync.WaitGroup
	for k, m := range []*Machine{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 64; round++ {
				for i, addr := range addrs {
					v := Word(k+1)<<24 | Word(round)<<8 | Word(i)
					access(m, 5, addr, v)
					if got := access(m, 2, addr, 0); got != v {
						t.Errorf("machine %d round %d: %#x reads %#x, want %#x", k, round, addr, got, v)
						return
					}
				}
				m.Reset()
				if !bytes.Equal(m.Bytes(DataBase, len(data)), data) {
					t.Errorf("machine %d round %d: Reset did not restore the data image", k, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := NewMachineSize(p, size).Bytes(DataBase, len(data)); !bytes.Equal(got, data) {
		t.Fatal("the shared image changed")
	}
}

// The shared image holds only its non-zero pages, and a fresh machine
// points at them without copying.
func TestSharedImageSkipsZeroPages(t *testing.T) {
	p := &Program{Code: accessCode, Data: mixedImage()}
	m := NewMachineSize(p, 1<<16)
	var present []int
	for i, pg := range m.pages {
		if pg != nil {
			present = append(present, i)
			if pg != p.dataImage()[i] {
				t.Fatalf("page %d is not the shared image page", i)
			}
		}
	}
	if want := []int{1, 3, 5}; !slices.Equal(present, want) {
		t.Fatalf("fresh machine reads pages %v, want %v", present, want)
	}
}

// StoreWord writes a little-endian word (no tracing).
func (m *Machine) StoreWord(addr Word, v Word) bool {
	if !m.checkMem(addr, 4) {
		return false
	}
	m.store32(addr, v)
	return true
}
