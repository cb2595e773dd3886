package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	u := New(5)
	if u.Sets() != 5 {
		t.Fatalf("Sets() = %d, want 5", u.Sets())
	}
	for i := 0; i < 5; i++ {
		if u.Find(i) != i {
			t.Errorf("Find(%d) = %d, want %d", i, u.Find(i), i)
		}
	}
}

func TestUnionBasic(t *testing.T) {
	u := New(4)
	u.Union(0, 1)
	u.Union(2, 3)
	if !u.Same(0, 1) || !u.Same(2, 3) {
		t.Fatal("expected 0~1 and 2~3")
	}
	if u.Same(1, 2) {
		t.Fatal("0-1 and 2-3 should be disjoint")
	}
	if u.Sets() != 2 {
		t.Fatalf("Sets() = %d, want 2", u.Sets())
	}
	u.Union(1, 3)
	if !u.Same(0, 2) {
		t.Fatal("after union all should be connected")
	}
	if u.Sets() != 1 {
		t.Fatalf("Sets() = %d, want 1", u.Sets())
	}
}

func TestUnionIdempotent(t *testing.T) {
	u := New(3)
	u.Union(0, 1)
	before := u.Sets()
	u.Union(0, 1)
	u.Union(1, 0)
	if u.Sets() != before {
		t.Fatalf("repeated union changed set count: %d -> %d", before, u.Sets())
	}
}

func TestGrowOnDemand(t *testing.T) {
	var u UF
	if got := u.Find(10); got != 10 {
		t.Fatalf("Find(10) = %d, want 10", got)
	}
	if u.Len() != 11 {
		t.Fatalf("Len() = %d, want 11", u.Len())
	}
	u.Union(10, 20)
	if !u.Same(10, 20) {
		t.Fatal("grown elements should union")
	}
}

func TestMakeSet(t *testing.T) {
	u := New(2)
	id := u.MakeSet()
	if id != 2 {
		t.Fatalf("MakeSet() = %d, want 2", id)
	}
	if u.Same(id, 0) || u.Same(id, 1) {
		t.Fatal("fresh set must be disjoint")
	}
}

// Property: union-find connectivity matches a naive reference implementation
// under random operation sequences.
func TestAgainstNaive(t *testing.T) {
	const n = 64
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := New(n)
		// naive: component label per element
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for op := 0; op < 200; op++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				u.Union(a, b)
				relabel(label[a], label[b])
			} else if u.Same(a, b) != (label[a] == label[b]) {
				return false
			}
		}
		// Full cross-check at the end.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if u.Same(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSetsCountMatchesComponents(t *testing.T) {
	u := New(10)
	// Build a chain 0-1-2-3-4 and a pair 7-8.
	for i := 0; i < 4; i++ {
		u.Union(i, i+1)
	}
	u.Union(7, 8)
	// Components: {0..4}, {5}, {6}, {7,8}, {9} = 5
	if u.Sets() != 5 {
		t.Fatalf("Sets() = %d, want 5", u.Sets())
	}
}

func BenchmarkUnionFind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u := New(1024)
		for j := 0; j < 1023; j++ {
			u.Union(j, j+1)
		}
		for j := 0; j < 1024; j++ {
			u.Find(j)
		}
	}
}

// Sets reports the number of disjoint sets: the elements that are their
// own parent.
func (u *UF) Sets() int {
	n := 0
	for i, p := range u.parent {
		if int(p) == i {
			n++
		}
	}
	return n
}
