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

const (
	pageShift = 12
	pageSize  = 1 << pageShift

	// Defaults from the paper: at most 40 descriptors, ranges longer than
	// 10 bytes, at most 30 exceptions each.
	defaultMaxDescriptors = 40
	descMinLen            = 10
	defaultMaxExceptions  = 30
)

type page struct {
	el   [pageSize]int32
	mask [pageSize]uint8
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

func (d *descriptor) excepted(a vm.Word) bool {
	for _, e := range d.exc {
		if e == a {
			return true
		}
	}
	return false
}

type shadowMem struct {
	pages map[vm.Word]*page
	descs []*descriptor

	// spare holds the pages of earlier executions, reused (cleared) before
	// any new page is allocated.
	spare []*page

	maxDescs int
	maxExc   int

	// One-entry page cache: consecutive accesses overwhelmingly hit the
	// same page (the current stack frame or the active buffer).
	lastKey  vm.Word
	lastPage *page

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
	return &shadowMem{pages: map[vm.Word]*page{}, maxDescs: maxDescs, maxExc: maxExc}
}

// reset empties the shadow for a new execution: every byte public, no
// descriptors. Its pages move to the spare list instead of being dropped.
func (s *shadowMem) reset() {
	for _, p := range s.pages {
		s.spare = append(s.spare, p)
	}
	clear(s.pages)
	clear(s.descs)
	s.descs = s.descs[:0]
	s.lastKey, s.lastPage = 0, nil
	s.flushes = 0
}

// pageFor returns the shadow page holding a, or nil if it has none yet.
func (s *shadowMem) pageFor(a vm.Word) *page {
	key := a >> pageShift
	if s.lastPage != nil && s.lastKey == key {
		return s.lastPage
	}
	p := s.pages[key]
	if p != nil {
		s.lastKey, s.lastPage = key, p
	}
	return p
}

// addPage allocates the shadow page holding a, reusing a spare page when
// there is one. Writers call it only for a non-public value: a missing page
// already reads as public.
func (s *shadowMem) addPage(a vm.Word) *page {
	var p *page
	if n := len(s.spare); n > 0 {
		p = s.spare[n-1]
		s.spare = s.spare[:n-1]
		*p = page{}
	} else {
		p = &page{}
	}
	key := a >> pageShift
	s.pages[key] = p
	s.lastKey, s.lastPage = key, p
	return p
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
	if d := s.descFor(a); d != nil && !d.excepted(a) {
		return d.el, bits.Mask(d.mask)
	}
	if p := s.pageFor(a); p != nil {
		off := a & (pageSize - 1)
		return p.el[off], bits.Mask(p.mask[off])
	}
	return 0, 0
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
	p := s.pageFor(a)
	if p == nil && (el != 0 || mask != 0) {
		p = s.addPage(a)
	}
	if p != nil {
		off := a & (pageSize - 1)
		p.el[off] = el
		p.mask[off] = uint8(mask)
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
		d.start = mid
		d.exc = d.exc[:0]
		return
	}
	s.flush(d)
}

// rawSet writes per-byte shadow without descriptor bookkeeping.
func (s *shadowMem) rawSet(a vm.Word, el int32, mask uint8) {
	p := s.pageFor(a)
	if p == nil && (el != 0 || mask != 0) {
		p = s.addPage(a)
	}
	if p != nil {
		off := a & (pageSize - 1)
		p.el[off] = el
		p.mask[off] = mask
	}
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
		default:
			// Partial overlap: flush (rare).
			s.flush(d)
		}
	}
	if n > descMinLen && len(s.descs) < s.maxDescs {
		s.descs = append(s.descs, &descriptor{start: a, end: end, el: el, mask: uint8(mask)})
		// Clear stale exceptions' authority: per-byte values inside the
		// range are now overridden only via the exception list, which is
		// empty, so nothing else to do.
		return
	}
	if n > descMinLen && s.maxDescs > 0 && len(s.descs) >= s.maxDescs {
		// Descriptor table full: evict the oldest to keep the lazy path.
		s.flush(s.descs[0])
		s.descs = append(s.descs, &descriptor{start: a, end: end, el: el, mask: uint8(mask)})
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
