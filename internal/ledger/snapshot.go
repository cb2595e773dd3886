package ledger

// snapshot.go is recovery and compaction. A snapshot is one framed record
// (same CRC framing as the WAL) holding the last LSN it covers plus the
// full entry table as JSON, written atomically (tmp + fsync + rename).
// Compaction writes a snapshot and truncates the WAL; a crash anywhere in
// that sequence is safe because replay skips WAL records at or below the
// snapshot's LSN. Recovery loads the snapshot, replays the WAL tail, and
// truncates a torn or corrupt tail at the last whole record — loudly,
// with counters, never silently.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"
)

// snapEntry is one (principal, program) pair in the snapshot.
type snapEntry struct {
	Principal     string           `json:"principal"`
	Program       string           `json:"program"`
	Settled       int64            `json:"settled_bits"`
	Queries       int64            `json:"queries"`
	Denied        int64            `json:"denied"`
	LastBits      int64            `json:"last_bits"`
	WindowStartNS int64            `json:"window_start_ns"`
	Pending       map[uint64]int64 `json:"pending,omitempty"` // charge LSN -> estimate
}

type snapFile struct {
	LastLSN uint64      `json:"last_lsn"`
	Entries []snapEntry `json:"entries"`
}

// recover loads the snapshot and replays the WAL into l.mu. Called from
// Open before the WAL is opened for appending; no locking needed.
func (l *Ledger) recover() error {
	os.Remove(l.snapPath() + ".tmp") // a compaction that died mid-write

	snapLSN, err := l.loadSnapshot()
	if err != nil {
		if !l.opts.FailOpen {
			return &UnavailableError{Op: "open", Cause: err}
		}
		// Fail open: recover from the WAL alone. Everything the snapshot
		// covered that the WAL no longer holds is lost — say so.
		l.log.Error("ledger: snapshot unreadable; recovering from WAL only (fail-open) — "+
			"compacted history is lost and cumulative bits may under-count", "err", err)
		snapLSN = 0
	}
	if l.mu.nextLSN <= snapLSN {
		l.mu.nextLSN = snapLSN + 1
	}
	return l.replayWAL(snapLSN)
}

// loadSnapshot reads ledger.snap into l.mu and returns the LSN it covers
// (0 when there is no snapshot).
func (l *Ledger) loadSnapshot() (uint64, error) {
	data, err := os.ReadFile(l.snapPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("reading snapshot: %w", err)
	}
	payload, consumed, ok := readFrame(data)
	if !ok || consumed != len(data) || len(payload) < 9 || payload[0] != recSnapshot {
		return 0, fmt.Errorf("snapshot %s is corrupt (%d bytes)", l.snapPath(), len(data))
	}
	lastLSN := binary.LittleEndian.Uint64(payload[1:9])
	var sf snapFile
	if err := json.Unmarshal(payload[9:], &sf); err != nil {
		return 0, fmt.Errorf("snapshot %s: %w", l.snapPath(), err)
	}
	if sf.LastLSN != lastLSN {
		return 0, fmt.Errorf("snapshot %s: LSN header %d != body %d", l.snapPath(), lastLSN, sf.LastLSN)
	}
	for _, se := range sf.Entries {
		k := pairKey{se.Principal, se.Program}
		e := &entry{
			key:         k,
			settled:     se.Settled,
			queries:     se.Queries,
			denied:      se.Denied,
			lastBits:    se.LastBits,
			windowStart: time.Unix(0, se.WindowStartNS),
		}
		for lsn, est := range se.Pending {
			e.pendingBits += est
			l.mu.pending[lsn] = pendingCharge{e, est}
		}
		l.mu.entries[k] = e
	}
	return lastLSN, nil
}

// replayWAL applies every valid WAL record with lsn > snapLSN, truncating
// the file at the first torn or corrupt frame. The fault plan's scripted
// tail corruption is applied to the file first, so the injected damage
// goes through exactly the code path real damage would.
//
// Every frame decodes into one walRecord, and a replay-scoped table finds
// a record's entry by its encoded principal and program, so a pair seen
// before costs a lookup that allocates nothing. The table is dropped when
// replay returns.
func (l *Ledger) replayWAL(snapLSN uint64) error {
	path := l.walPath()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		if !l.opts.FailOpen {
			return &UnavailableError{Op: "open", Cause: err}
		}
		l.log.Error("ledger: WAL unreadable; recovering from snapshot only (fail-open)", "err", err)
		return nil
	}
	if n := l.opts.Faults.TailCorruption(); n > 0 && len(data) > 0 {
		if n > len(data) {
			n = len(data)
		}
		for i := len(data) - n; i < len(data); i++ {
			data[i] ^= 0xFF
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return &UnavailableError{Op: "open", Cause: err}
		}
		l.log.Warn("ledger: injected tail corruption", "bytes", n)
	}

	var rec walRecord
	pairs := map[string]*entry{}
	off := 0
	for off < len(data) {
		payload, consumed, ok := readFrame(data[off:])
		if !ok {
			break
		}
		if derr := decodeRecord(payload, &rec); derr != nil {
			// CRC-valid but undecodable: version skew or in-frame damage.
			// Framing downstream can't be trusted either; stop here.
			l.log.Warn("ledger: undecodable WAL record; truncating", "offset", off, "err", derr)
			break
		}
		off += consumed
		if rec.lsn <= snapLSN {
			continue // already folded into the snapshot
		}
		l.applyRecord(&rec, pairs)
		l.mu.stats.replayedRecords++
		if rec.lsn >= l.mu.nextLSN {
			l.mu.nextLSN = rec.lsn + 1
		}
	}
	if off < len(data) {
		dropped := len(data) - off
		if err := os.Truncate(path, int64(off)); err != nil {
			if !l.opts.FailOpen {
				return &UnavailableError{Op: "open", Cause: err}
			}
			l.log.Error("ledger: could not truncate corrupt WAL tail (fail-open)", "err", err)
		}
		l.mu.stats.truncations++
		l.mu.stats.truncatedBytes += int64(dropped)
		l.log.Warn("ledger: truncated torn/corrupt WAL tail",
			"valid_bytes", off, "dropped_bytes", dropped)
	}
	return nil
}

// applyRecord folds one replayed record into the in-memory state. pairs
// maps an encoded principal and program to its entry.
func (l *Ledger) applyRecord(rec *walRecord, pairs map[string]*entry) {
	switch rec.typ {
	case recCharge:
		e := l.replayEntry(rec.pair, pairs)
		e.pendingBits += rec.estimate
		l.mu.pending[rec.lsn] = pendingCharge{e, rec.estimate}
	case recSettle:
		if p, ok := l.mu.pending[rec.chargeLSN]; ok {
			l.settleLocked(rec.chargeLSN, p, rec.actual)
		}
	case recReset:
		e := l.replayEntry(rec.pair, pairs)
		e.settled = 0
		e.windowStart = time.Unix(0, rec.windowStartNS)
	}
}

// replayEntry returns the entry of an encoded pair, creating it on the
// pair's first record. The map lookup converts pair without a copy; only
// a new pair copies its strings, once, out of the WAL buffer.
func (l *Ledger) replayEntry(pair []byte, pairs map[string]*entry) *entry {
	if e := pairs[string(pair)]; e != nil {
		return e
	}
	key, principal, program := decodePair(pair)
	e := l.entryLocked(pairKey{principal, program})
	pairs[key] = e
	return e
}

// settleRecovered pessimistically settles every charge that was in flight
// when the previous process died: the run may have completed and released
// its output just before the crash, so each is settled at its full
// estimate — charged, never dropped — through the same settleLocked a
// live settle and replay use, so the state here is the state the next
// replay of the appended settle records rebuilds. Charges settle in LSN
// order, so every recovery of one WAL appends the same records. An
// append failure here only means the next replay re-derives the
// identical pessimistic answer.
func (l *Ledger) settleRecovered() {
	if len(l.mu.pending) == 0 {
		return
	}
	for _, lsn := range slices.Sorted(maps.Keys(l.mu.pending)) {
		p := l.mu.pending[lsn]
		settleLSN := l.mu.nextLSN
		if err := l.appendLocked(encodeSettle(settleLSN, lsn, p.est)); err != nil {
			l.log.Warn("ledger: recovered charge not durably settled; replay will re-derive it",
				"charge_lsn", lsn, "estimate_bits", p.est, "err", err)
		} else {
			l.mu.nextLSN = settleLSN + 1
		}
		l.settleLocked(lsn, p, p.est)
		l.mu.stats.recoveredPending++
		l.log.Warn("ledger: recovered in-flight charge at full estimate",
			"principal", p.e.key.principal, "program", p.e.key.program, "bits", p.est)
	}
	l.maybeCompactLocked()
}

// snapshotLocked compacts: write the full state as a snapshot (atomic via
// tmp + fsync + rename), then truncate the WAL. Crash-ordering argument
// in the file comment.
func (l *Ledger) snapshotLocked() error {
	sf := snapFile{LastLSN: l.mu.nextLSN - 1}
	pending := map[*entry]map[uint64]int64{}
	for lsn, p := range l.mu.pending {
		m := pending[p.e]
		if m == nil {
			m = map[uint64]int64{}
			pending[p.e] = m
		}
		m[lsn] = p.est
	}
	for k, e := range l.mu.entries {
		se := snapEntry{
			Principal:     k.principal,
			Program:       k.program,
			Settled:       e.settled,
			Queries:       e.queries,
			Denied:        e.denied,
			LastBits:      e.lastBits,
			WindowStartNS: e.windowStart.UnixNano(),
			Pending:       pending[e],
		}
		sf.Entries = append(sf.Entries, se)
	}
	body, err := json.Marshal(sf)
	if err != nil {
		return err
	}
	var payload bytes.Buffer
	payload.WriteByte(recSnapshot)
	var lsnb [8]byte
	binary.LittleEndian.PutUint64(lsnb[:], sf.LastLSN)
	payload.Write(lsnb[:])
	payload.Write(body)

	tmp := l.snapPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame(payload.Bytes())); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, l.snapPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	// Snapshot is durable and covers every appended record; the WAL can go.
	if err := l.mu.wal.Truncate(0); err != nil {
		// Old records stay; replay will skip them by LSN. Harmless but big.
		l.log.Warn("ledger: WAL truncate after snapshot failed; replay will skip by LSN", "err", err)
	}
	l.mu.appends = 0
	l.mu.syncDebt = 0
	l.mu.snapshots++
	return nil
}
