package kraft

import (
	"math"
	"testing"
)

func TestSumBasic(t *testing.T) {
	// 2^-1 + 2^-2 + 2^-2 = 1.
	if s := Sum([]int64{1, 2, 2}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("sum = %v, want 1", s)
	}
}

func TestSatisfied(t *testing.T) {
	if !Satisfied([]int64{1, 2, 2}) {
		t.Fatal("complete binary code should satisfy Kraft")
	}
	if Satisfied([]int64{1, 1, 1}) {
		t.Fatal("three 1-bit codewords cannot be uniquely decodable")
	}
	if !Satisfied(nil) {
		t.Fatal("empty set trivially satisfies")
	}
}

// The paper's own number: Σ_{n=0..255} 2^-min(8, n+1) = 503/256.
func TestPaperSection32Example(t *testing.T) {
	var ks []int64
	for n := 0; n < 256; n++ {
		k := int64(n) + 1
		if k > 8 {
			k = 8
		}
		ks = append(ks, k)
	}
	want := 503.0 / 256.0
	if s := Sum(ks); math.Abs(s-want) > 1e-9 {
		t.Fatalf("sum = %v, want 503/256 = %v", s, want)
	}
	if Satisfied(ks) {
		t.Fatal("paper's example must violate Kraft")
	}
}

func TestUniformCodeExactlyOne(t *testing.T) {
	// 256 messages at 8 bits each: sum exactly 1.
	ks := make([]int64, 256)
	for i := range ks {
		ks[i] = 8
	}
	if !Satisfied(ks) {
		t.Fatal("uniform 8-bit code over 256 messages is exactly Kraft-tight")
	}
}

func TestNegativeAndHugeCounts(t *testing.T) {
	if s := Sum([]int64{-5}); s != 1 {
		t.Fatalf("negative count should clamp to 0 bits (sum 1), got %v", s)
	}
	if s := Sum([]int64{5000}); s != 0 {
		t.Fatalf("huge count contributes 0, got %v", s)
	}
}

func TestMinConsistentUniform(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9}}
	for _, c := range cases {
		if got := MinConsistentUniform(c.n); got != c.want {
			t.Errorf("MinConsistentUniform(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// MinConsistentUniform returns the smallest single bound k that is jointly
// sound for n equally-informative distinct messages: ceil(log2 n). (Paper
// §3.1: distinguishing N messages requires log2 N bits each.)
func MinConsistentUniform(n int) int64 {
	if n <= 1 {
		return 0
	}
	k := int64(0)
	for p := 1; p < n; p *= 2 {
		k++
		if p > (1 << 62) {
			break
		}
	}
	return k
}
