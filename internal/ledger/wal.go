package ledger

// wal.go is the ledger's durability layer: a checksummed, append-only
// write-ahead log plus a snapshot file, both built from the same framed
// record format:
//
//	u32  payload length N (little-endian)
//	N    payload (first byte: record type)
//	u32  CRC-32 (IEEE) over length + payload
//
// Every record carries a log sequence number (LSN). The snapshot stores
// the last LSN it covers, so replay after a crash between "snapshot
// renamed" and "WAL truncated" is idempotent: records at or below the
// snapshot's LSN are skipped. A torn or corrupt tail — a short header, an
// absurd length, a CRC mismatch, a truncated payload — ends replay at the
// last whole record: the file is truncated there and the dropped byte
// count is reported (Stats.TruncatedBytes), never silently skipped. All
// bytes past the first bad frame are unreachable anyway (framing is
// lost), and the charge-before-run protocol makes the truncation safe:
// any run whose charge record survived is recovered at its full
// pessimistic estimate, and a charge record that was torn belongs to a
// run that was never admitted.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record types.
const (
	recCharge   byte = 1
	recSettle   byte = 2
	recReset    byte = 3
	recSnapshot byte = 4
)

// maxRecordBytes rejects absurd frame lengths during replay, so a
// corrupted length field cannot make the reader allocate gigabytes or
// swallow the rest of the file as one "record".
const maxRecordBytes = 1 << 20

// frame wraps a payload in the length/CRC framing.
func frame(payload []byte) []byte {
	buf := make([]byte, 4+len(payload)+4)
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	crc := crc32.ChecksumIEEE(buf[: 4+len(payload) : 4+len(payload)])
	binary.LittleEndian.PutUint32(buf[4+len(payload):], crc)
	return buf
}

// readFrame parses one framed record from the front of b. ok is false
// when b does not start with a whole, checksum-valid record — the torn-
// tail condition.
func readFrame(b []byte) (payload []byte, consumed int, ok bool) {
	if len(b) < 8 {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n == 0 || n > maxRecordBytes || len(b) < 4+n+4 {
		return nil, 0, false
	}
	want := binary.LittleEndian.Uint32(b[4+n:])
	if crc32.ChecksumIEEE(b[:4+n]) != want {
		return nil, 0, false
	}
	return b[4 : 4+n], 4 + n + 4, true
}

// --- payload encoding -------------------------------------------------

type recEncoder struct{ buf []byte }

func (e *recEncoder) u8(v byte) { e.buf = append(e.buf, v) }
func (e *recEncoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}
func (e *recEncoder) i64(v int64) { e.u64(uint64(v)) }
func (e *recEncoder) str(s string) {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF] // identities this long are hostile; truncate, don't corrupt
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
	e.buf = append(e.buf, b[:]...)
	e.buf = append(e.buf, s...)
}

type recDecoder struct {
	b   []byte
	bad bool
}

func (d *recDecoder) u8() byte {
	if d.bad || len(d.b) < 1 {
		d.bad = true
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}
func (d *recDecoder) u64() uint64 {
	if d.bad || len(d.b) < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
func (d *recDecoder) i64() int64 { return int64(d.u64()) }

// skipStr steps over one length-prefixed string.
func (d *recDecoder) skipStr() {
	if d.bad || len(d.b) < 2 {
		d.bad = true
		return
	}
	n := int(binary.LittleEndian.Uint16(d.b))
	if len(d.b) < 2+n {
		d.bad = true
		return
	}
	d.b = d.b[2+n:]
}

// pair steps over a principal and a program and returns their encoding,
// a subslice of the payload.
func (d *recDecoder) pair() []byte {
	start := d.b
	d.skipStr()
	d.skipStr()
	if d.bad {
		return nil
	}
	return start[:len(start)-len(d.b)]
}

// --- record payloads --------------------------------------------------

func encodeCharge(lsn uint64, principal, program string, estimate int64) []byte {
	e := &recEncoder{}
	e.u8(recCharge)
	e.u64(lsn)
	e.i64(estimate)
	e.str(principal)
	e.str(program)
	return frame(e.buf)
}

func encodeSettle(lsn, chargeLSN uint64, actual int64) []byte {
	e := &recEncoder{}
	e.u8(recSettle)
	e.u64(lsn)
	e.u64(chargeLSN)
	e.i64(actual)
	return frame(e.buf)
}

func encodeReset(lsn uint64, principal, program string, windowStartNS int64) []byte {
	e := &recEncoder{}
	e.u8(recReset)
	e.u64(lsn)
	e.i64(windowStartNS)
	e.str(principal)
	e.str(program)
	return frame(e.buf)
}

// walRecord is one decoded WAL record. Replay decodes every frame into
// the same walRecord.
type walRecord struct {
	typ           byte
	lsn           uint64
	estimate      int64 // charge
	chargeLSN     uint64
	actual        int64 // settle
	windowStartNS int64 // reset
	// pair is a charge or reset record's principal and program, still
	// encoded (two length-prefixed strings). It aliases the payload, so
	// it is valid only until the next frame is decoded.
	pair []byte
}

// decodeRecord decodes one payload into r.
func decodeRecord(payload []byte, r *walRecord) error {
	d := recDecoder{b: payload}
	*r = walRecord{typ: d.u8(), lsn: d.u64()}
	switch r.typ {
	case recCharge:
		r.estimate = d.i64()
		r.pair = d.pair()
	case recSettle:
		r.chargeLSN = d.u64()
		r.actual = d.i64()
	case recReset:
		r.windowStartNS = d.i64()
		r.pair = d.pair()
	default:
		return fmt.Errorf("ledger: unknown record type %d", r.typ)
	}
	if d.bad {
		return fmt.Errorf("ledger: short record payload (type %d)", r.typ)
	}
	return nil
}

// decodePair copies a record's principal and program out of its encoded
// pair. Both are substrings of one copy of the pair, so they never alias
// the WAL buffer, and the copy is returned too for a caller that keys a
// map by the encoded pair.
func decodePair(pair []byte) (key, principal, program string) {
	key = string(pair)
	n := int(binary.LittleEndian.Uint16(pair))
	principal = key[2 : 2+n]
	program = key[2+n+2:]
	return key, principal, program
}
