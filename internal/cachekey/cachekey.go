// Package cachekey derives stable content-addressed keys for the staged
// analysis pipeline (internal/stagecache, internal/engine). A Key is a
// SHA-256 digest over a canonical encoding of the stage's inputs: compiled
// bytecode for the compile/static stages, the raw secret/public byte
// streams for per-input stages, and a field-by-field canonicalization of
// the analysis configuration (done by the engine, which knows which Config
// fields are result-relevant).
//
// Every key derivation starts from a domain string ("result/v1",
// "static/v1", ...) so keys from different stages can never collide even
// when their payloads do, and variable-length fields are length-prefixed
// so adjacent fields cannot alias ("ab"+"c" vs "a"+"bc"). Bump a domain's
// version suffix whenever the encoding of that stage's payload changes —
// that is the whole invalidation story for persisted or long-lived caches.
package cachekey

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"unsafe"

	"flowcheck/internal/vm"
)

// Key is a content-addressed cache key: a SHA-256 digest.
type Key [sha256.Size]byte

// String returns the full hex form of the key.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short returns an abbreviated hex form for logs and result provenance.
func (k Key) Short() string { return hex.EncodeToString(k[:6]) }

// Hasher accumulates canonically-encoded fields into a key. All writers
// return the hasher so derivations chain.
type Hasher struct {
	h   hash.Hash
	buf [8]byte
}

// New starts a key derivation under the given domain string. Distinct
// domains yield disjoint key spaces.
func New(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	return h.Str(domain)
}

func (h *Hasher) writeUint64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

// Bytes writes a length-prefixed byte field.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.writeUint64(uint64(len(b)))
	h.h.Write(b)
	return h
}

// Str writes a length-prefixed string field. The string's bytes go to
// the digest in place: a hash.Hash neither keeps nor modifies what it is
// given, so there is no copy to make.
func (h *Hasher) Str(s string) *Hasher {
	h.writeUint64(uint64(len(s)))
	h.h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	return h
}

// Int writes a fixed-width signed integer field.
func (h *Hasher) Int(v int64) *Hasher {
	h.writeUint64(uint64(v))
	return h
}

// Uint writes a fixed-width unsigned integer field.
func (h *Hasher) Uint(v uint64) *Hasher {
	h.writeUint64(v)
	return h
}

// Bool writes a boolean field.
func (h *Hasher) Bool(b bool) *Hasher {
	if b {
		return h.Int(1)
	}
	return h.Int(0)
}

// Key mixes an already-derived key in as a field, so composite keys
// (program x config x inputs) build from stage keys without rehashing the
// underlying payloads.
func (h *Hasher) Key(k Key) *Hasher {
	h.h.Write(k[:])
	return h
}

// Sum finalizes the derivation.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// Program hashes a compiled program: code (every instruction field), data
// segment, entry point, and the site/function tables. The diagnostic
// tables are included because cached results embed rendered source
// locations (cut descriptions, lint findings), so two programs that differ
// only in locations must not share result entries.
//
// The fields are encoded exactly as the Hasher's Int, Bytes and Str would
// write them, but into a chunk buffer that goes to the digest once per
// chunkSize bytes instead of once per field.
func Program(p *vm.Program) Key {
	h := New("program/v1")
	c := chunks{h: h.h, buf: make([]byte, 0, chunkSize+64)}
	c.u64(uint64(p.Entry))
	c.u64(uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		c.u64(uint64(in.Op)<<32 | uint64(in.W)<<24 | uint64(in.A)<<16 | uint64(in.B)<<8 | uint64(in.C))
		c.u64(uint64(uint32(in.Imm))<<32 | uint64(in.Site))
	}
	c.bytes(p.Data)
	c.u64(uint64(len(p.Sites)))
	for _, s := range p.Sites {
		c.str(s.File)
		c.u64(uint64(s.Line))
		c.str(s.Fn)
	}
	c.u64(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		c.str(f.Name)
		c.u64(uint64(f.Entry))
		c.u64(uint64(f.End))
	}
	c.flush()
	return h.Sum()
}

// chunkSize is how many encoded bytes chunks gathers per digest write.
const chunkSize = 4096

// chunks encodes fields the way Hasher does into a buffer and writes the
// buffer to the digest whenever it holds chunkSize bytes.
type chunks struct {
	h   hash.Hash
	buf []byte
}

func (c *chunks) u64(v uint64) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
	c.full()
}

// bytes writes a length-prefixed field. One that does not fit the chunk
// flushes it, and one of a chunk or more then goes to the digest as is.
func (c *chunks) bytes(b []byte) {
	c.u64(uint64(len(b)))
	if len(c.buf)+len(b) > cap(c.buf) {
		c.flush()
		if len(b) >= chunkSize {
			c.h.Write(b)
			return
		}
	}
	c.buf = append(c.buf, b...)
	c.full()
}

func (c *chunks) str(s string) { c.bytes(unsafe.Slice(unsafe.StringData(s), len(s))) }

func (c *chunks) full() {
	if len(c.buf) >= chunkSize {
		c.flush()
	}
}

func (c *chunks) flush() {
	c.h.Write(c.buf)
	c.buf = c.buf[:0]
}

// Inputs hashes one execution's secret/public input pair.
func Inputs(secret, public []byte) Key {
	return New("inputs/v1").Bytes(secret).Bytes(public).Sum()
}

// Source hashes MiniC source for the compile stage. The filename is part
// of the key: it is baked into compiled site tables and therefore into
// every rendered diagnostic downstream.
func Source(filename, src string) Key {
	return New("source/v1").Str(filename).Str(src).Sum()
}
