package taint

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowcheck/internal/bits"
	"flowcheck/internal/vm"
)

func TestShadowByteRoundTrip(t *testing.T) {
	s := newShadowMem(0, 0)
	s.setByte(0x1000, 7, 0xAB&0xFF)
	el, m := s.get(0x1000)
	if el != 7 || m != 0xAB {
		t.Fatalf("get = (%d, %#x)", el, m)
	}
	// Unset bytes are public.
	if el, m := s.get(0x1001); el != 0 || m != 0 {
		t.Fatalf("default shadow not public: (%d, %#x)", el, m)
	}
}

// Shadow addresses are not bounded by guest memory: an enclosure region
// may declare outputs past its end. Both a short range, written byte by
// byte, and a flushed descriptor land there, and reset clears them.
func TestShadowPastMemory(t *testing.T) {
	s := newShadowMem(0, 0)
	if s.pages != nil {
		t.Fatal("a fresh shadow holds a page table")
	}
	past := vm.Word(2 * vm.DefaultMemSize)
	s.setRange(past, 4, 3, 0x01)
	s.setRange(past+pageSize, 64, 5, 0xFF)
	s.flush(s.descs[0])
	if el, m := s.get(past + 3); el != 3 || m != 0x01 {
		t.Fatalf("short range read = (%d, %#x)", el, m)
	}
	if el, m := s.get(past + pageSize + 63); el != 5 || m != 0xFF {
		t.Fatalf("flushed descriptor read = (%d, %#x)", el, m)
	}
	s.reset()
	if el, m := s.get(past + 3); el != 0 || m != 0 {
		t.Fatalf("reset left (%d, %#x)", el, m)
	}
}

func TestShadowRangeBecomesDescriptor(t *testing.T) {
	s := newShadowMem(0, 0)
	s.setRange(0x2000, 1000, 5, 0xFF)
	if len(s.descs) != 1 {
		t.Fatalf("descs = %d, want 1 (lazy path)", len(s.descs))
	}
	if el, m := s.get(0x2300); el != 5 || m != 0xFF {
		t.Fatalf("descriptor read = (%d, %#x)", el, m)
	}
}

func TestShadowShortRangeStaysPerByte(t *testing.T) {
	s := newShadowMem(0, 0)
	s.setRange(0x2000, 4, 5, 0xFF)
	if len(s.descs) != 0 {
		t.Fatalf("short range should not create a descriptor")
	}
	if el, _ := s.get(0x2003); el != 5 {
		t.Fatal("short range bytes not set")
	}
}

func TestShadowExceptions(t *testing.T) {
	s := newShadowMem(0, 0)
	s.setRange(0x2000, 1000, 5, 0xFF)
	s.setByte(0x2100, 9, 0x0F)
	if el, m := s.get(0x2100); el != 9 || m != 0x0F {
		t.Fatalf("exception read = (%d, %#x)", el, m)
	}
	if el, _ := s.get(0x2101); el != 5 {
		t.Fatal("neighbor clobbered by exception")
	}
}

func TestShadowExceptionOverflowFlushes(t *testing.T) {
	s := newShadowMem(0, 5)
	s.setRange(0x2000, 1000, 5, 0xFF)
	// Exceptions in the second half cannot be shrunk away, forcing
	// elimination once the budget is exceeded.
	for i := 0; i < 6; i++ {
		s.setByte(0x2000+500+vm.Word(i), 9, 0x01)
	}
	if len(s.descs) != 0 {
		t.Fatalf("descriptor should be eliminated, have %d", len(s.descs))
	}
	// Values must survive the flush.
	if el, _ := s.get(0x2001); el != 5 {
		t.Fatal("flush lost descriptor value")
	}
	if el, _ := s.get(0x2000 + 502); el != 9 {
		t.Fatal("flush lost exception value")
	}
}

func TestShadowShrinkWhenExceptionsInFirstHalf(t *testing.T) {
	s := newShadowMem(0, 4)
	s.setRange(0x2000, 1000, 5, 0xFF)
	for i := 0; i < 6; i++ {
		s.setByte(0x2000+vm.Word(i), 9, 0x01)
	}
	if len(s.descs) != 1 {
		t.Fatalf("descriptor should shrink, not vanish: %d", len(s.descs))
	}
	d := s.descs[0]
	if d.start <= 0x2005 {
		t.Fatalf("descriptor did not shrink: start=%#x", d.start)
	}
	// Both halves still read correctly.
	if el, _ := s.get(0x2002); el != 9 {
		t.Fatal("first-half exception lost")
	}
	if el, _ := s.get(0x2300); el != 5 {
		t.Fatal("second-half descriptor value lost")
	}
}

func TestShadowOverwriteRange(t *testing.T) {
	s := newShadowMem(0, 0)
	s.setRange(0x2000, 100, 5, 0xFF)
	s.setRange(0x2000, 100, 0, 0) // declassify
	if el, m := s.get(0x2050); el != 0 || m != 0 {
		t.Fatalf("overwrite failed: (%d, %#x)", el, m)
	}
}

func TestRangeRunsCoalesce(t *testing.T) {
	s := newShadowMem(0, 0)
	s.setByte(0x1000, 3, 0xFF)
	s.setByte(0x1001, 3, 0x0F)
	s.setByte(0x1002, 4, 0xFF)
	runs := s.rangeRuns(0x1000, 4)
	if len(runs) != 3 {
		t.Fatalf("runs = %+v, want 3 (el 3, el 4, el 0)", runs)
	}
	if runs[0].el != 3 || runs[0].n != 2 || runs[0].maskSum != 12 {
		t.Fatalf("run 0 = %+v", runs[0])
	}
	if runs[1].el != 4 || runs[1].maskSum != 8 {
		t.Fatalf("run 1 = %+v", runs[1])
	}
	if runs[2].el != 0 {
		t.Fatalf("run 2 = %+v", runs[2])
	}
}

func TestRangeRunsDescriptorFastPath(t *testing.T) {
	s := newShadowMem(0, 0)
	s.setRange(0x4000, 10000, 7, 0xFF)
	runs := s.rangeRuns(0x4000, 10000)
	if len(runs) != 1 || runs[0].el != 7 || runs[0].maskSum != 80000 {
		t.Fatalf("fast path runs = %+v", runs)
	}
}

// Property: a shadow memory driven by random byte/range operations always
// agrees with a naive per-byte reference model.
func TestShadowMatchesReferenceModel(t *testing.T) {
	type cell struct {
		el int32
		m  uint8
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newShadowMem(4, 6) // small limits to stress shrink/flush
		ref := map[vm.Word]cell{}
		base := vm.Word(0x1000)
		const span = 4096
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0: // byte write
				a := base + vm.Word(rng.Intn(span))
				el, m := int32(rng.Intn(5)), uint8(rng.Intn(256))
				if el == 0 {
					m = 0
				}
				s.setByte(a, el, bits.Mask(m))
				ref[a] = cell{el, m}
			case 1: // range write
				a := base + vm.Word(rng.Intn(span))
				n := rng.Intn(200) + 1
				el, m := int32(rng.Intn(5)), uint8(rng.Intn(256))
				if el == 0 {
					m = 0
				}
				s.setRange(a, n, el, bits.Mask(m))
				for i := 0; i < n; i++ {
					ref[a+vm.Word(i)] = cell{el, m}
				}
			case 2: // read check
				a := base + vm.Word(rng.Intn(span))
				el, m := s.get(a)
				want := ref[a]
				if el != want.el || uint8(m) != want.m {
					return false
				}
			}
		}
		// Full sweep at the end.
		for a, want := range ref {
			el, m := s.get(a)
			if el != want.el || uint8(m) != want.m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShadowRangeRetagLazy(b *testing.B) {
	s := newShadowMem(0, 0)
	for i := 0; i < b.N; i++ {
		s.setRange(0x10000, 1<<16, int32(i+1), 0xFF)
	}
}

// shadowOps decodes fuzz bytes; reads past the end give 0.
type shadowOps struct{ b []byte }

func (r *shadowOps) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// fuzzBase and fuzzPages bound the addresses FuzzShadowPages touches.
const (
	fuzzBase  = vm.Word(pageSize)
	fuzzPages = 4
)

// addr picks an address in the window, biased towards page edges.
func (r *shadowOps) addr() vm.Word {
	pg := vm.Word(r.byte() % fuzzPages)
	off := vm.Word(r.byte())<<4 | vm.Word(r.byte()&15)
	if r.byte()&1 == 0 {
		off = pageSize - 8 + off%16 // straddle the page's end
	}
	return fuzzBase + pg*pageSize + off%(pageSize+8)
}

// value picks a shadow value: public, or an element with a non-zero mask.
func (r *shadowOps) value() (int32, bits.Mask) {
	el := int32(r.byte() % 4)
	if el == 0 {
		return 0, 0
	}
	return el, bits.Mask(r.byte() | 1)
}

// oracleGet reads a byte's shadow the way the descriptors define it,
// without the per-page counts.
func oracleGet(s *shadowMem, a vm.Word) (int32, bits.Mask) {
	if d := s.descFor(a); d != nil && !d.excepted(a) {
		return d.el, bits.Mask(d.mask)
	}
	if p := s.pages.At(a); p != nil {
		off := a & (pageSize - 1)
		return p.el[off], bits.Mask(p.mask[off])
	}
	return 0, 0
}

// checkShadowPages recounts every page from its per-byte shadow and the
// descriptor list, and checks the fast answers against oracleGet.
func checkShadowPages(t *testing.T, s *shadowMem, step int) {
	t.Helper()
	present := 0
	for i, p := range s.pages {
		if p == nil {
			continue
		}
		present++
		var tainted, descs int32
		for off := range p.el {
			if p.el[off] != 0 || p.mask[off] != 0 {
				tainted++
			}
		}
		lo, hi := vm.Word(i)<<vm.PageShift, vm.Word(i+1)<<vm.PageShift
		for _, d := range s.descs {
			if (d.el != 0 || d.mask != 0) && d.start < hi && d.end > lo {
				descs++
			}
		}
		if p.tainted != tainted || p.descs != descs {
			t.Fatalf("step %d: page %d counts %d tainted, %d descriptors; recount %d, %d", step, i, p.tainted, p.descs, tainted, descs)
		}
	}
	if present != len(s.present) {
		t.Fatalf("step %d: %d pages present, %d listed", step, present, len(s.present))
	}
	tainted := 0
	for _, d := range s.descs {
		if d.el != 0 || d.mask != 0 {
			tainted++
		}
	}
	if s.taintedDescs != tainted {
		t.Fatalf("step %d: %d non-public descriptors counted, %d live", step, s.taintedDescs, tainted)
	}
	for a := fuzzBase; a < fuzzBase+(fuzzPages+1)*pageSize; a++ {
		el, m := oracleGet(s, a)
		if gel, gm := s.get(a); gel != el || gm != m {
			t.Fatalf("step %d: get(%#x) = (%d, %#x), want (%d, %#x)", step, a, gel, gm, el, m)
		}
		for _, n := range []int{1, 2, 4} {
			pub, covered := true, false
			for i := 0; i < n; i++ {
				if el, m := oracleGet(s, a+vm.Word(i)); el != 0 || m != 0 {
					pub = false
				}
				p := s.pages.At(a + vm.Word(i))
				covered = covered || s.descFor(a+vm.Word(i)) != nil ||
					p != nil && p.descs != 0 || p == nil && s.taintedDescs != 0
			}
			got := s.public(a, n)
			if got && !pub {
				t.Fatalf("step %d: public(%#x, %d) but a byte is not", step, a, n)
			}
			// Bytes no descriptor covers, on present pages no non-public
			// descriptor overlaps or on missing pages while none is live,
			// are read from the per-byte shadow, and the answer is exact.
			if !got && pub && !covered {
				t.Fatalf("step %d: public(%#x, %d) = false for public bytes no descriptor covers", step, a, n)
			}
		}
	}
}

// FuzzShadowPages drives a shadow memory through random byte and range
// writes, descriptor overflows, flushes and resets, and after each step
// checks every page's counts against a recount and the fast answers
// against the byte-by-byte reads.
func FuzzShadowPages(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 1, 2, 3, 1, 2, 200, 1, 1, 9})
	f.Add([]byte{1, 1, 1, 1, 0, 0, 1, 1, 77, 0, 2, 0, 1, 3, 4, 5, 1, 3, 0, 0, 0})
	f.Add([]byte{3, 2, 1, 2, 9, 9, 0, 2, 5, 2, 3, 1, 1, 2, 3, 0, 7, 3, 1, 0, 0, 1, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := &shadowOps{b: ops}
		s := newShadowMem(1+int(r.byte()%5), 1+int(r.byte()%6))
		for step := 0; len(r.b) > 0 && step < 64; step++ {
			switch r.byte() % 6 {
			case 0, 1:
				a := r.addr()
				el, m := r.value()
				s.setByte(a, el, m)
			case 2:
				a := r.addr()
				n := int(r.byte())<<5 | int(r.byte()&31)
				el, m := r.value()
				s.setRange(a, n, el, m)
			case 3: // overflow a descriptor's exception budget
				if len(s.descs) == 0 {
					continue
				}
				d := s.descs[int(r.byte())%len(s.descs)]
				lo, span := d.start, d.end-d.start
				if r.byte()&1 == 1 {
					span /= 2 // exceptions in the first half shrink it
				}
				el, m := r.value()
				for i := 0; i <= s.maxExc && len(s.descs) > 0 && s.descFor(lo) == d; i++ {
					s.setByte(lo+vm.Word(r.byte())%span, el, m)
				}
			case 4:
				if len(s.descs) > 0 {
					s.flush(s.descs[int(r.byte())%len(s.descs)])
				}
			case 5:
				s.reset()
			}
			checkShadowPages(t, s, step)
		}
	})
}
