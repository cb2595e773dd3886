package ledger

// replay_test.go checks WAL replay three ways: a WAL and snapshot written
// by an earlier version of the ledger (testdata/parent) replay to the
// Stats recorded with them, a live ledger and its reopened copy agree, and
// FuzzReplay compares Open against an oracle over arbitrary WAL bytes. The
// oracle is the decoder and apply loop replay used before it went through
// the one pending index: every record decoded into a fresh value with its
// own strings, a pending map in each entry and a second map from charge LSN
// to pair.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// --- oracle -----------------------------------------------------------

type oracleRecord struct {
	typ           byte
	lsn           uint64
	principal     string
	program       string
	estimate      int64
	chargeLSN     uint64
	actual        int64
	windowStartNS int64
}

func oracleStr(d *recDecoder) string {
	if d.bad || len(d.b) < 2 {
		d.bad = true
		return ""
	}
	n := int(binary.LittleEndian.Uint16(d.b))
	d.b = d.b[2:]
	if len(d.b) < n {
		d.bad = true
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func oracleDecode(payload []byte) (oracleRecord, error) {
	d := &recDecoder{b: payload}
	r := oracleRecord{typ: d.u8(), lsn: d.u64()}
	switch r.typ {
	case recCharge:
		r.estimate = d.i64()
		r.principal = oracleStr(d)
		r.program = oracleStr(d)
	case recSettle:
		r.chargeLSN = d.u64()
		r.actual = d.i64()
	case recReset:
		r.windowStartNS = d.i64()
		r.principal = oracleStr(d)
		r.program = oracleStr(d)
	default:
		return r, fmt.Errorf("unknown record type %d", r.typ)
	}
	if d.bad {
		return r, fmt.Errorf("short record payload (type %d)", r.typ)
	}
	return r, nil
}

type oracleEntry struct {
	settled, pendingBits, queries, lastBits int64
	pending                                 map[uint64]int64
}

// oracleState is what the oracle recovers from a WAL with no snapshot.
type oracleState struct {
	entries          map[pairKey]*oracleEntry
	replayed         int64
	recoveredPending int64
	valid            int // bytes of the valid prefix
}

// oracleOpen replays data as Open did, then settles every recovered
// charge at its estimate, the way a settle record applies.
func oracleOpen(data []byte) oracleState {
	st := oracleState{entries: map[pairKey]*oracleEntry{}}
	index := map[uint64]pairKey{}
	entry := func(k pairKey) *oracleEntry {
		e := st.entries[k]
		if e == nil {
			e = &oracleEntry{pending: map[uint64]int64{}}
			st.entries[k] = e
		}
		return e
	}
	for st.valid < len(data) {
		payload, consumed, ok := readFrame(data[st.valid:])
		if !ok {
			break
		}
		rec, err := oracleDecode(payload)
		if err != nil {
			break
		}
		st.valid += consumed
		if rec.lsn == 0 {
			continue // at or below the LSN of the missing snapshot
		}
		switch rec.typ {
		case recCharge:
			k := pairKey{rec.principal, rec.program}
			e := entry(k)
			e.pending[rec.lsn] = rec.estimate
			e.pendingBits += rec.estimate
			index[rec.lsn] = k
		case recSettle:
			if k, ok := index[rec.chargeLSN]; ok {
				if e := st.entries[k]; e != nil {
					if est, ok := e.pending[rec.chargeLSN]; ok {
						delete(e.pending, rec.chargeLSN)
						delete(index, rec.chargeLSN)
						e.pendingBits -= est
						e.settled += rec.actual
						e.queries++
						e.lastBits = rec.actual
					}
				}
			}
		case recReset:
			entry(pairKey{rec.principal, rec.program}).settled = 0
		}
		st.replayed++
	}
	// Recovery settles each charge left in flight at its estimate, in LSN
	// order, as a settle record would.
	for _, lsn := range slices.Sorted(maps.Keys(index)) {
		e := st.entries[index[lsn]]
		est := e.pending[lsn]
		delete(e.pending, lsn)
		e.pendingBits -= est
		e.settled += est
		e.queries++
		e.lastBits = est
		st.recoveredPending++
	}
	return st
}

// --- helpers ----------------------------------------------------------

// walOf frames each payload as one WAL record.
func walOf(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = append(b, frame(p)...)
	}
	return b
}

// payloadOf strips the framing off an encoded record.
func payloadOf(rec []byte) []byte { return rec[4 : len(rec)-4] }

// chunked encodes payloads as FuzzReplay's framed input: a length byte
// before each payload.
func chunked(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = append(b, byte(len(p)))
		b = append(b, p...)
	}
	return b
}

// unchunk is chunked's inverse; a short last chunk is cut to what is
// left.
func unchunk(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		n := min(int(b[0]), len(b)-1)
		out = append(out, b[1:1+n])
		b = b[1+n:]
	}
	return out
}

// entryKey is an EntryStats without the fields a crash does not keep: the
// denial count lives only in snapshots.
type entryKey struct {
	principal, program              string
	settled, pending, queries, last int64
	cumulative, remaining           int64
	near                            bool
}

func entryKeys(es []EntryStats) []entryKey {
	out := make([]entryKey, len(es))
	for i, e := range es {
		out[i] = entryKey{e.Principal, e.Program, e.SettledBits, e.PendingBits, e.Queries, e.LastBits,
			e.CumulativeBits, e.RemainingBits, e.NearThreshold}
	}
	return out
}

func copyDir(t testing.TB, from, to string) {
	t.Helper()
	for _, f := range []string{"ledger.wal", "ledger.snap"} {
		b, err := os.ReadFile(filepath.Join(from, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// --- tests ------------------------------------------------------------

// parentOptions replay testdata/parent with the budget and window it was
// written with. Its clock is fixed: replay reads the clock only to start
// a new entry's window, which Stats does not show.
func parentOptions(dir string) Options {
	now := time.Unix(1_700_000_000, 0)
	return Options{Dir: dir, BudgetBits: 700, Window: time.Hour, SyncEvery: -1, SnapshotEvery: -1,
		Logger: quiet(), Now: func() time.Time { return now }}
}

// TestReplayParentFixture replays a WAL tail and snapshot written by an
// earlier ledger (charges, settles, resets, denials, and charges left in
// flight both in the snapshot and in the WAL) and compares the whole
// Stats with testdata/parent.stats.json: what that ledger recovered from
// the same files, except that each charge recovered in flight also counts
// as a query whose last bits are its estimate (settled in LSN order), as
// the settle record recovery appends applies on replay.
func TestReplayParentFixture(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, "testdata/parent", dir)
	l := mustOpen(t, parentOptions(dir))
	got, err := json.MarshalIndent(l.Stats(), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent.stats.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("replayed Stats differ from testdata/parent.stats.json:\n%s", got)
	}
}

// TestReplayParentFixtureBytes re-encodes every record of the fixture WAL
// with today's encoders and the fixture snapshot's state with today's
// snapshot writer: both formats are unchanged.
func TestReplayParentFixtureBytes(t *testing.T) {
	wal, err := os.ReadFile("testdata/parent/ledger.wal")
	if err != nil {
		t.Fatal(err)
	}
	var again []byte
	for off := 0; off < len(wal); {
		payload, n, ok := readFrame(wal[off:])
		if !ok {
			t.Fatalf("fixture WAL has a bad frame at %d", off)
		}
		r, err := oracleDecode(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch r.typ {
		case recCharge:
			again = append(again, encodeCharge(r.lsn, r.principal, r.program, r.estimate)...)
		case recSettle:
			again = append(again, encodeSettle(r.lsn, r.chargeLSN, r.actual)...)
		case recReset:
			again = append(again, encodeReset(r.lsn, r.principal, r.program, r.windowStartNS)...)
		}
		off += n
	}
	if !bytes.Equal(again, wal) {
		t.Fatal("re-encoded WAL records differ from the fixture")
	}

	// The fixture snapshot, loaded without recovering its in-flight
	// charges, writes itself back with the same header and the same JSON
	// body, up to entry order.
	dir := t.TempDir()
	snap, err := os.ReadFile("testdata/parent/ledger.snap")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ledger.snap"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	l := &Ledger{opts: parentOptions(dir).withDefaults(), log: quiet()}
	l.mu.ch = make(chan struct{}, 1)
	l.mu.entries = map[pairKey]*entry{}
	l.mu.pending = map[uint64]pendingCharge{}
	lastLSN, err := l.loadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	l.mu.nextLSN = lastLSN + 1
	if l.mu.wal, err = os.Create(filepath.Join(dir, "ledger.wal")); err != nil {
		t.Fatal(err)
	}
	defer l.mu.wal.Close()
	if err := l.snapshotLocked(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, "ledger.snap"))
	if err != nil {
		t.Fatal(err)
	}
	body := func(b []byte) snapFile {
		p := payloadOf(b)
		if p[0] != recSnapshot {
			t.Fatalf("snapshot record type %d", p[0])
		}
		var sf snapFile
		if err := json.Unmarshal(p[9:], &sf); err != nil {
			t.Fatal(err)
		}
		sort.Slice(sf.Entries, func(i, j int) bool {
			a, b := sf.Entries[i], sf.Entries[j]
			return a.Principal < b.Principal || a.Principal == b.Principal && a.Program < b.Program
		})
		return sf
	}
	w, g := body(snap), body(written)
	if len(written) != len(snap) || !bytes.Equal(payloadOf(written)[:9], payloadOf(snap)[:9]) {
		t.Fatalf("snapshot header or size changed: %d bytes, fixture %d", len(written), len(snap))
	}
	wj, _ := json.Marshal(w)
	gj, _ := json.Marshal(g)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("snapshot body changed:\n got %s\nwant %s", gj, wj)
	}
}

// TestReplayMatchesLive drives random charge, settle, reset and denial
// sequences with window decay and compaction, crashes with charges in
// flight, and reopens: the recovered entries equal the live ones, with
// every in-flight charge settled once at its estimate.
func TestReplayMatchesLive(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			dir := t.TempDir()
			now := time.Unix(1_700_000_000, 0)
			opts := Options{
				Dir: dir, BudgetBits: 200 + rng.Int63n(800), Window: time.Duration(1+rng.Intn(20)) * time.Minute,
				SyncEvery: -1, SnapshotEvery: []int{-1, 7, 64}[rng.Intn(3)],
				Logger: quiet(), Now: func() time.Time { return now },
			}
			l := abandon(t, opts)
			var open []*Charge
			for i := 0; i < 50+rng.Intn(300); i++ {
				now = now.Add(time.Duration(rng.Intn(60)) * time.Second)
				p, q := fmt.Sprintf("p%d", rng.Intn(4)), fmt.Sprintf("g%d", rng.Intn(3))
				switch r := rng.Intn(10); {
				case r < 5:
					if c, err := l.Charge(p, q, rng.Int63n(120)); err == nil {
						open = append(open, c)
					}
				case r < 9 && len(open) > 0:
					j := rng.Intn(len(open))
					c := open[j]
					open = append(open[:j], open[j+1:]...)
					if err := l.Settle(c, rng.Int63n(c.EstimateBits+1)); err != nil {
						t.Fatal(err)
					}
				case r == 9:
					if err := l.Reset(p, q); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Recovery settles each in-flight charge at its full estimate,
			// in LSN order, as a live settle would.
			live := entryKeys(l.Stats().Entries)
			slices.SortFunc(open, func(a, b *Charge) int { return cmp.Compare(a.LSN, b.LSN) })
			for _, c := range open {
				for i := range live {
					if live[i].principal == c.Principal && live[i].program == c.Program {
						live[i].settled += c.EstimateBits
						live[i].pending -= c.EstimateBits
						live[i].queries++
						live[i].last = c.EstimateBits
					}
				}
			}

			re := mustOpen(t, opts)
			st := re.Stats()
			if got := entryKeys(st.Entries); fmt.Sprint(got) != fmt.Sprint(live) {
				t.Fatalf("reopened entries differ:\n got %v\nwant %v", got, live)
			}
			if st.RecoveredPending != int64(len(open)) {
				t.Fatalf("RecoveredPending = %d, want %d", st.RecoveredPending, len(open))
			}
			// Each recovered charge was settled by recovery; settling it
			// again is a no-op.
			for _, c := range open {
				before := re.Cumulative(c.Principal, c.Program)
				if err := re.Settle(c, 0); err != nil {
					t.Fatal(err)
				}
				if got := re.Cumulative(c.Principal, c.Program); got != before {
					t.Fatalf("charge %d settled twice: %d -> %d bits", c.LSN, before, got)
				}
			}
			if re.Stats().Settled != 0 {
				t.Fatalf("a recovered charge settled again")
			}
		})
	}
}

// FuzzReplay opens a ledger over arbitrary WAL bytes: Open never panics,
// and what it recovers equals the oracle's replay of the valid prefix.
// With framed set, data is a list of length-prefixed payloads that the
// harness frames with valid checksums, so record contents (duplicate
// LSNs, settles of unknown charges, short and unknown records) are
// reached; otherwise data is the WAL itself.
func FuzzReplay(f *testing.F) {
	ch := func(lsn uint64, p, q string, est int64) []byte { return payloadOf(encodeCharge(lsn, p, q, est)) }
	se := func(lsn, c uint64, a int64) []byte { return payloadOf(encodeSettle(lsn, c, a)) }
	rs := func(lsn uint64, p, q string) []byte { return payloadOf(encodeReset(lsn, p, q, 5)) }
	seqs := [][][]byte{
		{ch(1, "a", "x", 10), se(2, 1, 3), ch(3, "b", "x", 7)},
		{ch(1, "a", "x", 10), ch(1, "b", "y", 20), se(2, 1, 4)},
		{ch(1, "a", "x", 10), ch(1, "a", "x", 20), se(2, 1, 4), rs(3, "a", "x")},
		{se(1, 9, 9), rs(2, "", ""), ch(0, "a", "", 5), ch(3, "", "", 0), {recCharge, 4}},
	}
	for _, s := range seqs {
		f.Add(chunked(s...), true)
		f.Add(walOf(s...), false)
	}
	if wal, err := os.ReadFile("testdata/parent/ledger.wal"); err == nil {
		f.Add(wal, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		wal := data
		if framed {
			wal = walOf(unchunk(data)...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "ledger.wal"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir, SyncEvery: -1, SnapshotEvery: -1, Logger: quiet()})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		want := oracleOpen(wal)
		st := l.Stats()
		if st.ReplayedRecords != want.replayed || st.RecoveredPending != want.recoveredPending ||
			st.TruncatedBytes != int64(len(wal)-want.valid) {
			t.Fatalf("replayed %d, recovered %d, truncated %d; oracle %d, %d, %d",
				st.ReplayedRecords, st.RecoveredPending, st.TruncatedBytes,
				want.replayed, want.recoveredPending, len(wal)-want.valid)
		}
		if len(st.Entries) != len(want.entries) {
			t.Fatalf("%d entries, oracle %d", len(st.Entries), len(want.entries))
		}
		for _, es := range st.Entries {
			e := want.entries[pairKey{es.Principal, es.Program}]
			if e == nil || es.SettledBits != e.settled || es.PendingBits != e.pendingBits ||
				es.Queries != e.queries || es.LastBits != e.lastBits {
				t.Fatalf("%s/%s: %+v, oracle %+v", es.Principal, es.Program, es, e)
			}
		}
	})
}

// --- allocation ceiling -----------------------------------------------

// replayRecords is the size of the replay benchmark's WAL, and of the one
// a service replays at start-up in the repository's benchmark.
const replayRecords = 20000

// writeReplayWAL writes replayRecords records of charge/settle pairs over
// 50 principals and 10 programs, unsynced and uncompacted.
func writeReplayWAL(tb testing.TB, dir string) {
	tb.Helper()
	l, err := Open(Options{Dir: dir, SyncEvery: -1, SnapshotEvery: -1, Logger: quiet()})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < replayRecords/2; i++ {
		est := int64(8 + rng.Intn(1024))
		c, err := l.Charge(fmt.Sprintf("p%02d", rng.Intn(50)), fmt.Sprintf("guest%d", rng.Intn(10)), est)
		if err != nil {
			tb.Fatal(err)
		}
		if err := l.Settle(c, rng.Int63n(est+1)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
}

func openClose(tb testing.TB, dir string) {
	l, err := Open(Options{Dir: dir, Logger: quiet()})
	if err != nil {
		tb.Fatal(err)
	}
	if st := l.Stats(); st.ReplayedRecords != replayRecords {
		tb.Fatalf("replayed %d records, want %d", st.ReplayedRecords, replayRecords)
	}
	l.Close()
}

func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	writeReplayWAL(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openClose(b, dir)
	}
}

// TestReplayAllocs caps replay at 0.1 allocations per record: a record
// of a pair seen before allocates nothing.
func TestReplayAllocs(t *testing.T) {
	dir := t.TempDir()
	writeReplayWAL(t, dir)
	allocs := testing.AllocsPerRun(3, func() { openClose(t, dir) })
	if per := allocs / replayRecords; per > 0.1 {
		t.Fatalf("replay made %.0f allocations, %.3f per record; ceiling 0.1", allocs, per)
	}
}
