// Package fleet is the horizontal scaling layer: a coordinator that
// spreads analysis traffic across N flowserved shards and treats shard
// death, stalls, and partitions as routine events that cost latency,
// never soundness.
//
// Placement is a consistent-hash ring over the shards' names keyed by
// PR 6's content-addressed program keys, so a program's requests land on
// the same shard run after run and that shard's session pool, stage
// cache, and breaker state stay hot for it. Single requests fail over
// along the key's replica list with jittered backoff and hedge to the next
// replica when the owner dawdles past its latency budget; batches fan
// their runs across every healthy shard with work stealing and merge the
// per-run graphs at the coordinator through the same engine.SolveJoint
// seam the in-process batch uses — which is why a distributed batch is
// bit-identical to a single-process one, even when a shard is killed
// mid-batch and its runs are re-dispatched.
package fleet

import (
	"encoding/binary"
	"fmt"
	"sort"

	"flowcheck/internal/cachekey"
)

// vnode is one virtual point on the ring.
type vnode struct {
	hash  uint64
	shard int // index into the coordinator's shard slice
}

// ring is an immutable consistent-hash ring over the fleet's shards.
// Health is not the ring's concern: Lookup returns the full preference
// order for a key, and the coordinator filters by liveness, so a shard
// leaving and rejoining never moves any keys — it just shifts traffic
// to each key's next replica and back.
type ring struct {
	vnodes []vnode
	shards int
}

// newRing builds the ring with vper virtual nodes per shard. Virtual
// nodes smooth the key distribution; their hashes are content-addressed
// from the shard names, so every coordinator that knows the same shard
// names builds the same ring.
func newRing(names []string, vper int) *ring {
	r := &ring{vnodes: make([]vnode, 0, len(names)*vper), shards: len(names)}
	for i, name := range names {
		for v := 0; v < vper; v++ {
			k := cachekey.New("fleet/vnode/v1").Str(name).Int(int64(v)).Sum()
			r.vnodes = append(r.vnodes, vnode{hash: binary.BigEndian.Uint64(k[:8]), shard: i})
		}
	}
	sort.Slice(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].hash != r.vnodes[b].hash {
			return r.vnodes[a].hash < r.vnodes[b].hash
		}
		return r.vnodes[a].shard < r.vnodes[b].shard
	})
	return r
}

// programKey places a program on the ring: the same content-addressed
// hashing as the shard-local stage caches, so placement is stable across
// coordinator restarts and independent of Go's randomized map iteration.
func programKey(program string) uint64 {
	k := cachekey.New("fleet/key/v1").Str(program).Sum()
	return binary.BigEndian.Uint64(k[:8])
}

// runKey places one batch run: batches spread across the fleet instead
// of hot-spotting the program's home shard, but deterministically, so a
// re-run of the same batch offers each shard the same runs again warm.
func runKey(program string, run int) uint64 {
	k := cachekey.New("fleet/run/v1").Str(program).Int(int64(run)).Sum()
	return binary.BigEndian.Uint64(k[:8])
}

// Lookup returns up to n distinct shard indices in the key's preference
// order: the first vnode clockwise from the key, then the next distinct
// shards encountered walking the ring.
func (r *ring) Lookup(key uint64, n int) []int {
	if len(r.vnodes) == 0 || n <= 0 {
		return nil
	}
	if n > r.shards {
		n = r.shards
	}
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= key })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.vnodes) && len(out) < n; i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if !seen[v.shard] {
			seen[v.shard] = true
			out = append(out, v.shard)
		}
	}
	return out
}

// Spread reports how many vnodes each shard owns — /statz material for
// eyeballing ring balance.
func (r *ring) Spread() []int {
	counts := make([]int, r.shards)
	for _, v := range r.vnodes {
		counts[v.shard]++
	}
	return counts
}

func (r *ring) String() string {
	return fmt.Sprintf("ring(%d shards, %d vnodes)", r.shards, len(r.vnodes))
}
