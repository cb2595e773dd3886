// Package unionfind provides a disjoint-set (union-find) structure with
// path compression and union by rank.
//
// A collapsed flowgraph.Arena uses it to identify flow-graph nodes that
// share an edge key, for the taint builder and the multi-run graph merger
// alike (paper §3.2, §5.2): when an edge (u, v) repeats key l, u is merged
// with the source of l's edge and v with its target.
package unionfind

// UF is a union-find structure over dense integer elements. New elements are
// created on demand by Find or Union; the zero value is ready to use.
type UF struct {
	parent []int32
	rank   []uint8
}

// New returns a union-find structure with n initial singleton elements.
func New(n int) *UF {
	u := &UF{}
	u.Grow(n)
	return u
}

// Grow ensures elements [0, n) exist.
func (u *UF) Grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, int32(len(u.parent)))
		u.rank = append(u.rank, 0)
	}
}

// Reset discards every element and set, then creates n singletons,
// keeping the buffers for reuse.
func (u *UF) Reset(n int) {
	u.parent = u.parent[:0]
	u.rank = u.rank[:0]
	u.Grow(n)
}

// Len reports the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// MakeSet creates a fresh singleton element and returns its id.
func (u *UF) MakeSet() int {
	id := len(u.parent)
	u.Grow(id + 1)
	return id
}

// Find returns the representative of x, growing the structure if x is new.
func (u *UF) Find(x int) int {
	u.Grow(x + 1)
	root := x
	for u.parent[root] != int32(root) {
		root = int(u.parent[root])
	}
	// Path compression.
	for x != root {
		next := int(u.parent[x])
		u.parent[x] = int32(root)
		x = next
	}
	return root
}

// Union merges the sets containing x and y and returns the representative of
// the merged set.
func (u *UF) Union(x, y int) int {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return rx
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	return rx
}

// Same reports whether a and b are in the same set.
func (u *UF) Same(a, b int) bool { return u.Find(a) == u.Find(b) }
