package static

// pinned_test.go pins the static pass's output on every guest: each
// function's CFG, every region (branch, postdominator, function, kind and
// covered pcs), the enclosure spans, statistics and every Bound field are
// hashed per guest and compared against testdata/static.pinned. A change
// to how the pass is computed that changes any answer fails here.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"flowcheck/internal/guest"
)

// analysisHash hashes everything Analyze reports about one program.
func analysisHash(a *Analysis) string {
	var b []byte
	w := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	s := func(v string) { w(int64(len(v))); b = append(b, v...) }
	flag := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}

	st := a.Stats
	w(int64(st.Funcs))
	w(int64(st.Blocks))
	w(int64(st.Branches))
	w(int64(st.Regions))
	w(int64(st.Enclosures))

	w(int64(len(a.CFGs)))
	for _, c := range a.CFGs {
		s(c.Name)
		w(int64(c.Entry))
		w(int64(c.End))
		w(int64(c.Exit))
		flag(c.Indirect)
		w(int64(len(c.Blocks)))
		for _, blk := range c.Blocks {
			w(int64(blk.ID))
			w(int64(blk.Start))
			w(int64(blk.End))
			w(int64(len(blk.Succs)))
			for _, v := range blk.Succs {
				w(int64(v))
			}
			w(int64(len(blk.Preds)))
			for _, v := range blk.Preds {
				w(int64(v))
			}
		}
	}

	w(int64(len(a.Regions)))
	for _, r := range a.Regions {
		w(int64(r.Branch))
		w(int64(r.PostDom))
		s(r.Func)
		flag(r.Indirect)
		w(int64(r.Size()))
		for pc := range a.Prog.Code {
			if r.Covers(pc) {
				w(int64(pc))
			}
		}
	}
	for pc := range a.Prog.Code {
		flag(a.Covered(pc))
	}

	w(int64(len(a.Spans)))
	for _, sp := range a.Spans {
		w(int64(sp.Enter))
		w(int64(sp.Leave))
		s(sp.Func)
		w(int64(sp.Depth))
		flag(sp.Balanced)
	}

	bd := a.Bound
	w(bd.StreamReadBits)
	flag(bd.MarkSecret)
	w(bd.OutputBits)
	w(bd.BranchBits)
	flag(bd.Resolved())
	w(int64(len(bd.Channels)))
	for _, ch := range bd.Channels {
		w(int64(ch.PC))
		s(ch.Where)
		s(ch.Kind)
		w(ch.Bits)
		w(ch.Count)
	}
	w(int64(len(bd.Notes)))
	for _, n := range bd.Notes {
		s(n)
	}
	for _, n := range []int{0, 1, 64, 4096} {
		w(bd.Bits(n))
	}

	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

func TestGuestStaticPinned(t *testing.T) {
	var got []string
	for _, name := range guest.Names() {
		got = append(got, name+" "+analysisHash(Analyze(guest.Program(name))))
	}

	f, err := os.Open("testdata/static.pinned")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d guests analyzed, %d pinned", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("static analysis changed: got %q, pinned %q", got[i], want[i])
		}
	}
}
