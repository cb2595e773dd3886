package vm

import "encoding/binary"

// Guest memory is demand-paged, in the spirit of the paged shadow memory of
// paper §4.3. The configured address space is split into 4 KiB pages: a
// page never written reads as zeros and costs nothing, and a page is
// allocated on its first write. Guests touch a handful of pages of their
// multi-MiB address space, so a pooled machine holds only those.
//
// The data image is shared. Each Program builds it once, as read-only
// pages in a PageTable, and leaves an all-zero page of it absent: a
// missing page already reads as zeros. Every machine of the program
// starts with its read table pointing at the image pages, and the first
// write to one gives the machine a private copy, so no machine ever
// writes a shared page.
//
// Two page tables share a machine's pages. pages is the read view (nil
// reads as zeros); written holds only the pages written since the last
// Reset, and dirty lists their indices, so Reset restores exactly those
// pages and its cost scales with the pages a run touched, not with the
// memory size. Reset copies the image back into a private copy of an
// image page and clears any other written page; both stay in the read
// table for the next run. Bounds are always checked against the
// configured size before a page is looked up; the tables merely cover it.

// Guest memory and its shadow are paged in PageSize-byte pages.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
)

type page [PageSize]byte

// PageTable is a flat page table: entry i holds the page covering
// addresses [i·PageSize, (i+1)·PageSize), and a nil entry is a page that
// is not present. Guest memory and the taint tracker's shadow memory
// (internal/taint) both use it.
type PageTable[P any] []*P

// newPageTable returns an empty table covering a memSize-byte address
// space.
func newPageTable[P any](memSize int) PageTable[P] {
	return make(PageTable[P], (memSize+PageSize-1)>>PageShift)
}

// At returns the page holding address a, or nil when none is present or a
// lies beyond the table.
func (t PageTable[P]) At(a Word) *P {
	if i := a >> PageShift; i < Word(len(t)) {
		return t[i]
	}
	return nil
}

// Put stores p as the page holding address a, first growing the table to
// cover a if it does not. The taint shadows start empty and grow this
// way: an enclosure region may declare outputs past the end of guest
// memory, and their shadow is kept like any other.
func (t *PageTable[P]) Put(a Word, p *P) {
	i := int(a >> PageShift)
	if i >= len(*t) {
		*t = append(*t, make(PageTable[P], i+1-len(*t))...)
	}
	(*t)[i] = p
}

// buildImage lays data out at DataBase as read-only pages, leaving out
// the all-zero ones.
func buildImage(data []byte) PageTable[page] {
	if len(data) == 0 {
		return nil
	}
	img := newPageTable[page](int(DataBase) + len(data))
	for i := int(DataBase) >> PageShift; i < len(img); i++ {
		lo := i<<PageShift - int(DataBase) // DataBase is page-aligned
		chunk := data[lo:min(lo+PageSize, len(data))]
		if allZero(chunk) {
			continue
		}
		p := new(page)
		copy(p[:], chunk)
		img[i] = p
	}
	return img
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// initMemory builds the page tables for a memSize-byte address space,
// reading the program's shared data image.
func (m *Machine) initMemory(memSize int) {
	m.size = memSize
	m.pages = newPageTable[page](memSize)
	m.written = newPageTable[page](memSize)
	m.image = m.Prog.dataImage()
	copy(m.pages, m.image)
}

// resetMemory restores every page written since the last reset to its
// initial contents: a private copy of an image page gets the image back,
// and any other page is cleared. The pages stay allocated for the next
// run, and no shared page is written.
func (m *Machine) resetMemory() {
	for _, i := range m.dirty {
		p := m.written[i]
		m.written[i] = nil
		if img := m.image.At(Word(i) << PageShift); img != nil {
			*p = *img
		} else {
			clear(p[:])
		}
	}
	m.dirty = m.dirty[:0]
}

// writable returns page i for writing and records it for the next Reset.
// A page not present is allocated, and a shared image page is first
// copied.
func (m *Machine) writable(i Word) *page {
	p := m.pages[i]
	if p == nil {
		p = new(page)
		m.pages[i] = p
	} else if p == m.image.At(i<<PageShift) {
		q := new(page)
		*q = *p
		p = q
		m.pages[i] = p
	}
	m.written[i] = p
	m.dirty = append(m.dirty, uint32(i))
	return p
}

// The try accessors are the interpreter's hot path, small enough to
// inline into Step: an access within one allocated page goes straight to
// it, and they report false for anything else — a page not yet allocated
// (for a store, not yet written since Reset), or an access straddling two
// pages — which the caller then hands to loadSlow or storeSlow. Callers
// check bounds first.

func (m *Machine) tryLoad16(addr Word) (Word, bool) {
	p, off := m.pages[addr>>PageShift], addr&pageMask
	if p == nil || off > PageSize-2 {
		return 0, false
	}
	return Word(binary.LittleEndian.Uint16(p[off:])), true
}

func (m *Machine) tryLoad32(addr Word) (Word, bool) {
	p, off := m.pages[addr>>PageShift], addr&pageMask
	if p == nil || off > PageSize-4 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(p[off:]), true
}

func (m *Machine) tryStore16(addr Word, v Word) bool {
	p, off := m.written[addr>>PageShift], addr&pageMask
	if p == nil || off > PageSize-2 {
		return false
	}
	binary.LittleEndian.PutUint16(p[off:], uint16(v))
	return true
}

func (m *Machine) tryStore32(addr Word, v Word) bool {
	p, off := m.written[addr>>PageShift], addr&pageMask
	if p == nil || off > PageSize-4 {
		return false
	}
	binary.LittleEndian.PutUint32(p[off:], v)
	return true
}

// load32 and store32 serve the callers off the hot path.

func (m *Machine) load32(addr Word) Word {
	if v, ok := m.tryLoad32(addr); ok {
		return v
	}
	return m.loadSlow(addr, 4)
}

func (m *Machine) store32(addr Word, v Word) {
	if !m.tryStore32(addr, v) {
		m.storeSlow(addr, 4, v)
	}
}

// loadSlow reads an n-byte little-endian value one byte at a time.
func (m *Machine) loadSlow(addr Word, n int) Word {
	var v Word
	for i := 0; i < n; i++ {
		v |= Word(m.loadByte(addr+Word(i))) << (8 * i)
	}
	return v
}

// storeSlow writes the low n bytes of v one byte at a time, allocating
// pages as needed.
func (m *Machine) storeSlow(addr Word, n int, v Word) {
	for i := 0; i < n; i++ {
		m.storeByte(addr+Word(i), byte(v>>(8*i)))
	}
}

func (m *Machine) loadByte(a Word) byte {
	if p := m.pages[a>>PageShift]; p != nil {
		return p[a&pageMask]
	}
	return 0
}

func (m *Machine) storeByte(a Word, b byte) {
	p := m.written[a>>PageShift]
	if p == nil {
		p = m.writable(a >> PageShift)
	}
	p[a&pageMask] = b
}

// readInto copies len(dst) bytes of guest memory at addr into dst, one page
// at a time. The caller has checked bounds.
func (m *Machine) readInto(dst []byte, addr Word) {
	for len(dst) > 0 {
		off := int(addr & pageMask)
		n := min(len(dst), PageSize-off)
		if p := m.pages[addr>>PageShift]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+Word(n)
	}
}

// writeFrom copies src into guest memory at addr, one page at a time. The
// caller has checked bounds.
func (m *Machine) writeFrom(addr Word, src []byte) {
	for len(src) > 0 {
		off := int(addr & pageMask)
		p := m.written[addr>>PageShift]
		if p == nil {
			p = m.writable(addr >> PageShift)
		}
		n := copy(p[off:], src)
		src, addr = src[n:], addr+Word(n)
	}
}
