package vm

import "encoding/binary"

// Guest memory is demand-paged, in the spirit of the paged shadow memory of
// paper §4.3. The configured address space is split into 4 KiB pages: a
// page never written reads as zeros and costs nothing, and a page is
// allocated on its first write. Guests touch a handful of pages of their
// multi-MiB address space, so a pooled machine holds only those.
//
// Two page tables share the pages. pages is the read view (nil reads as
// zeros); written holds only the pages written since the last Reset, and
// dirty lists their indices, so Reset restores exactly those pages and its
// cost scales with the pages a run touched, not with the memory size.
// Bounds are always checked against the configured size before a page is
// looked up; the tables merely cover it.

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// initMemory builds the page tables for a memSize-byte address space and
// the pages of the data image.
func (m *Machine) initMemory(memSize int) {
	n := (memSize + pageSize - 1) >> pageShift
	m.size = memSize
	m.pages = make([]*page, n)
	m.written = make([]*page, n)
	if len(m.Prog.Data) == 0 {
		return
	}
	first := int(DataBase) >> pageShift
	last := (int(DataBase) + len(m.Prog.Data) - 1) >> pageShift
	for i := first; i <= last; i++ {
		p := new(page)
		m.loadImage(i, p)
		m.pages[i] = p
	}
}

// resetMemory restores every page written since the last reset to its
// initial contents: zeros plus its part of the data image. The pages stay
// allocated for the next run.
func (m *Machine) resetMemory() {
	for _, i := range m.dirty {
		p := m.written[i]
		clear(p[:])
		m.loadImage(int(i), p)
		m.written[i] = nil
	}
	m.dirty = m.dirty[:0]
}

// loadImage copies the part of the data image that falls in page i.
func (m *Machine) loadImage(i int, p *page) {
	base := i << pageShift
	lo := max(base, int(DataBase))
	hi := min(base+pageSize, int(DataBase)+len(m.Prog.Data))
	if lo < hi {
		copy(p[lo-base:], m.Prog.Data[lo-int(DataBase):hi-int(DataBase)])
	}
}

// writable returns page i for writing, allocating it on first write and
// recording it for the next Reset.
func (m *Machine) writable(i Word) *page {
	p := m.pages[i]
	if p == nil {
		p = new(page)
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
	p, off := m.pages[addr>>pageShift], addr&pageMask
	if p == nil || off > pageSize-2 {
		return 0, false
	}
	return Word(binary.LittleEndian.Uint16(p[off:])), true
}

func (m *Machine) tryLoad32(addr Word) (Word, bool) {
	p, off := m.pages[addr>>pageShift], addr&pageMask
	if p == nil || off > pageSize-4 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(p[off:]), true
}

func (m *Machine) tryStore16(addr Word, v Word) bool {
	p, off := m.written[addr>>pageShift], addr&pageMask
	if p == nil || off > pageSize-2 {
		return false
	}
	binary.LittleEndian.PutUint16(p[off:], uint16(v))
	return true
}

func (m *Machine) tryStore32(addr Word, v Word) bool {
	p, off := m.written[addr>>pageShift], addr&pageMask
	if p == nil || off > pageSize-4 {
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
	if p := m.pages[a>>pageShift]; p != nil {
		return p[a&pageMask]
	}
	return 0
}

func (m *Machine) storeByte(a Word, b byte) {
	p := m.written[a>>pageShift]
	if p == nil {
		p = m.writable(a >> pageShift)
	}
	p[a&pageMask] = b
}

// readInto copies len(dst) bytes of guest memory at addr into dst, one page
// at a time. The caller has checked bounds.
func (m *Machine) readInto(dst []byte, addr Word) {
	for len(dst) > 0 {
		off := int(addr & pageMask)
		n := min(len(dst), pageSize-off)
		if p := m.pages[addr>>pageShift]; p != nil {
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
		p := m.written[addr>>pageShift]
		if p == nil {
			p = m.writable(addr >> pageShift)
		}
		n := copy(p[off:], src)
		src, addr = src[n:], addr+Word(n)
	}
}
