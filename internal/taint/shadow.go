package taint

import (
	"flowcheck/internal/bits"
	"flowcheck/internal/vm"
)

// Shadow state per guest memory byte: the union-find element of the value
// occupying the byte (0 = public, no graph node) and its secrecy mask.
//
// Two representations coexist, as in paper §4.3: a paged per-byte shadow,
// and a bounded set of lazy region descriptors. A descriptor records that a
// long contiguous range holds one value (for example after an enclosure
// region retags a whole array) without touching each byte; later
// single-byte writes are recorded as exceptions until the descriptor
// overflows and is shrunk or flushed.
//
// The per-byte shadow is paged like guest memory, on the same flat
// vm.PageTable indexed by page number. The table is allocated on the first
// non-public write and grows to cover each page written, so a tracker
// that never sees secret data holds none. Each page counts its non-public
// bytes and the non-public descriptors overlapping it, and the shadow
// counts its live non-public descriptors. A page whose counts
// are both zero reads as public throughout, whatever public descriptors
// cover it — Memcheck's "distinguished secondary map" — and so does a
// missing page while no non-public descriptor is live. On a page no
// non-public descriptor overlaps, the per-byte shadow alone tells whether
// a byte is public. A load of public bytes and a store of a public value
// over public bytes then skip the byte-by-byte shadow work. A descriptor
// allocates no page: a long retagged range costs no shadow pages until
// its bytes are written one by one.

const (
	pageSize = vm.PageSize

	// Defaults from the paper: at most 40 descriptors, ranges longer than
	// 10 bytes, at most 30 exceptions each.
	defaultMaxDescriptors = 40
	descMinLen            = 10
	defaultMaxExceptions  = 30
)

type page struct {
	el   [pageSize]int32
	mask [pageSize]uint8

	// tainted counts the bytes whose element or mask is non-zero; descs
	// counts the non-public descriptors overlapping the page.
	tainted int32
	descs   int32
}

// set writes the shadow of the byte at off, keeping tainted exact.
func (p *page) set(off vm.Word, el int32, mask uint8) {
	if p.el[off] != 0 || p.mask[off] != 0 {
		p.tainted--
	}
	if el != 0 || mask != 0 {
		p.tainted++
	}
	p.el[off], p.mask[off] = el, mask
}

// descriptor says bytes [start, end) hold the value el with byte mask mask,
// except at the addresses in exc (whose per-byte shadow is authoritative).
type descriptor struct {
	start, end vm.Word
	el         int32
	mask       uint8
	exc        []vm.Word
}

func (d *descriptor) covers(a vm.Word) bool { return a >= d.start && a < d.end }

// tainted reports whether the descriptor's value is not public.
func (d *descriptor) tainted() bool { return d.el != 0 || d.mask != 0 }

func (d *descriptor) excepted(a vm.Word) bool {
	for _, e := range d.exc {
		if e == a {
			return true
		}
	}
	return false
}

type shadowMem struct {
	// pages is nil until the first non-public write; present lists the
	// indices of its pages, so reset visits only those.
	pages   vm.PageTable[page]
	present []uint32

	descs []*descriptor
	// taintedDescs counts the descriptors in descs that are not public.
	taintedDescs int

	// spare holds the pages of earlier executions, reused (cleared) before
	// any new page is allocated.
	spare []*page

	maxDescs int
	maxExc   int

	// Flushes counts descriptor eliminations (for stats/ablation).
	flushes int
}

func newShadowMem(maxDescs, maxExc int) *shadowMem {
	switch {
	case maxDescs == 0:
		maxDescs = defaultMaxDescriptors
	case maxDescs < 0:
		maxDescs = 0 // lazy descriptors disabled (the §4.3 ablation)
	}
	if maxExc <= 0 {
		maxExc = defaultMaxExceptions
	}
	return &shadowMem{maxDescs: maxDescs, maxExc: maxExc}
}

// reset empties the shadow for a new execution: every byte public, no
// descriptors. Its pages move to the spare list instead of being dropped,
// and the table stays allocated.
func (s *shadowMem) reset() {
	for _, i := range s.present {
		s.spare = append(s.spare, s.pages[i])
		s.pages[i] = nil
	}
	s.present = s.present[:0]
	clear(s.descs)
	s.descs = s.descs[:0]
	s.taintedDescs = 0
	s.flushes = 0
}

// addPage allocates the shadow page holding a, reusing a spare page when
// there is one, and grows the table to cover it. Writers call it only for
// a non-public value: a missing page already reads as public.
func (s *shadowMem) addPage(a vm.Word) *page {
	i := a >> vm.PageShift
	var p *page
	if n := len(s.spare); n > 0 {
		p = s.spare[n-1]
		s.spare = s.spare[:n-1]
		*p = page{}
	} else {
		p = &page{}
	}
	lo, hi := i<<vm.PageShift, (i+1)<<vm.PageShift
	for _, d := range s.descs {
		if d.tainted() && d.start < hi && d.end > lo {
			p.descs++
		}
	}
	s.pages.Put(a, p)
	s.present = append(s.present, uint32(i))
	return p
}

// public reports whether the n ≤ 4 bytes at a all read as public. They
// do when their page holds no non-public byte and no non-public
// descriptor, or is missing while no non-public descriptor is live. On a
// page with no non-public descriptor, a byte whose per-byte shadow is
// public also reads as public: a public descriptor covering it would read
// the same. Anything else answers false, and the caller reads byte by
// byte.
func (s *shadowMem) public(a vm.Word, n int) bool {
	off := a & (pageSize - 1)
	if int(off)+n > pageSize {
		for i := 0; i < n; i++ {
			if !s.public(a+vm.Word(i), 1) {
				return false
			}
		}
		return true
	}
	p := s.pages.At(a)
	if p == nil {
		return s.taintedDescs == 0
	}
	if p.descs != 0 {
		return false
	}
	if p.tainted == 0 {
		return true
	}
	for i := off; i < off+vm.Word(n); i++ {
		if p.el[i] != 0 || p.mask[i] != 0 {
			return false
		}
	}
	return true
}

// descFor returns the descriptor covering a, if any. Descriptors never
// overlap (setRange flushes overlaps), so at most one matches.
func (s *shadowMem) descFor(a vm.Word) *descriptor {
	for _, d := range s.descs {
		if d.covers(a) {
			return d
		}
	}
	return nil
}

// get returns the shadow of one byte.
func (s *shadowMem) get(a vm.Word) (int32, bits.Mask) {
	p := s.pages.At(a)
	if p == nil && s.taintedDescs == 0 || p != nil && p.tainted == 0 && p.descs == 0 {
		return 0, 0
	}
	if d := s.descFor(a); d != nil && !d.excepted(a) {
		return d.el, bits.Mask(d.mask)
	}
	if p == nil {
		return 0, 0
	}
	off := a & (pageSize - 1)
	return p.el[off], bits.Mask(p.mask[off])
}

// setByte writes the shadow of one byte, recording an exception if a
// descriptor covers the address.
func (s *shadowMem) setByte(a vm.Word, el int32, mask bits.Mask) {
	if d := s.descFor(a); d != nil {
		if !d.excepted(a) {
			d.exc = append(d.exc, a)
			if len(d.exc) > s.maxExc {
				s.overflow(d)
			}
		}
	}
	s.rawSet(a, el, uint8(mask))
}

// markDesc adds delta, for a non-public descriptor, to the live count
// and to the descriptor count of every present page it overlaps.
func (s *shadowMem) markDesc(d *descriptor, delta int32) {
	if !d.tainted() {
		return
	}
	s.taintedDescs += int(delta)
	for i := d.start >> vm.PageShift; i <= (d.end-1)>>vm.PageShift; i++ {
		if p := s.pages.At(i << vm.PageShift); p != nil {
			p.descs += delta
		}
	}
}

// overflow handles a descriptor exceeding its exception budget: if all
// exceptions fall in the first half, the descriptor shrinks to the second
// half (the excepted bytes' per-byte shadow is already authoritative);
// otherwise it is eliminated by flushing to the per-byte shadow.
func (s *shadowMem) overflow(d *descriptor) {
	mid := d.start + (d.end-d.start)/2
	allFirst := true
	for _, e := range d.exc {
		if e >= mid {
			allFirst = false
			break
		}
	}
	if allFirst {
		// Flush the first half's non-excepted bytes, then shrink.
		for a := d.start; a < mid; a++ {
			if !d.excepted(a) {
				s.rawSet(a, d.el, d.mask)
			}
		}
		s.markDesc(d, -1)
		d.start = mid
		s.markDesc(d, 1)
		d.exc = d.exc[:0]
		return
	}
	s.flush(d)
}

// rawSet writes per-byte shadow without descriptor bookkeeping.
func (s *shadowMem) rawSet(a vm.Word, el int32, mask uint8) {
	p := s.pages.At(a)
	if p == nil {
		if el == 0 && mask == 0 {
			return
		}
		p = s.addPage(a)
	}
	p.set(a&(pageSize-1), el, mask)
}

// flush eliminates a descriptor, materializing it into the per-byte shadow.
func (s *shadowMem) flush(d *descriptor) {
	for a := d.start; a < d.end; a++ {
		if !d.excepted(a) {
			s.rawSet(a, d.el, d.mask)
		}
	}
	for i, x := range s.descs {
		if x == d {
			s.descs = append(s.descs[:i], s.descs[i+1:]...)
			break
		}
	}
	s.markDesc(d, -1)
	s.flushes++
}

// setRange sets [a, a+n) to one value. Long ranges become descriptors (the
// lazy path); short ones are written byte by byte.
func (s *shadowMem) setRange(a vm.Word, n int, el int32, mask bits.Mask) {
	if n <= 0 {
		return
	}
	end := a + vm.Word(n)
	// Resolve overlaps: shrink or flush any descriptor touching the range.
	for i := 0; i < len(s.descs); {
		d := s.descs[i]
		switch {
		case d.end <= a || d.start >= end:
			i++ // disjoint
		case d.start >= a && d.end <= end:
			// Fully covered: drop without flushing (it is being overwritten).
			s.descs = append(s.descs[:i], s.descs[i+1:]...)
			s.markDesc(d, -1)
		default:
			// Partial overlap: flush (rare).
			s.flush(d)
		}
	}
	if n > descMinLen && s.maxDescs > 0 {
		if len(s.descs) >= s.maxDescs {
			// Descriptor table full: evict the oldest to keep the lazy path.
			s.flush(s.descs[0])
		}
		// Per-byte values inside the range are now overridden only via the
		// exception list, which is empty.
		d := &descriptor{start: a, end: end, el: el, mask: uint8(mask)}
		s.descs = append(s.descs, d)
		s.markDesc(d, 1)
		return
	}
	for i := 0; i < n; i++ {
		s.setByte(a+vm.Word(i), el, mask)
	}
}

// run is a maximal subrange of bytes holding the same value element.
type run struct {
	start   vm.Word
	n       int
	el      int32
	maskSum int // total secret bits across the run's bytes
}

// rangeRuns decomposes [a, a+n) into value runs, coalescing adjacent bytes
// that belong to the same value. Region-leave retagging uses this to draw
// one edge per distinct old value rather than one per byte.
func (s *shadowMem) rangeRuns(a vm.Word, n int) []run {
	// Fast path: the whole range is one exception-free descriptor.
	if d := s.descFor(a); d != nil && len(d.exc) == 0 && a+vm.Word(n) <= d.end {
		return []run{{start: a, n: n, el: d.el, maskSum: n * bits.Count(bits.Mask(d.mask))}}
	}
	var runs []run
	for i := 0; i < n; i++ {
		addr := a + vm.Word(i)
		el, m := s.get(addr)
		cnt := bits.Count(m & 0xFF)
		if len(runs) > 0 && runs[len(runs)-1].el == el && runs[len(runs)-1].start+vm.Word(runs[len(runs)-1].n) == addr {
			runs[len(runs)-1].n++
			runs[len(runs)-1].maskSum += cnt
		} else {
			runs = append(runs, run{start: addr, n: 1, el: el, maskSum: cnt})
		}
	}
	return runs
}
