package stagecache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"flowcheck/internal/cachekey"
)

func key(i int) cachekey.Key {
	return cachekey.New("test/v1").Int(int64(i)).Sum()
}

func TestPutGet(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20})
	k := key(1)
	if _, ok := c.Get("result", k); ok {
		t.Fatalf("hit on empty cache")
	}
	c.Put("result", k, "value", 100)
	v, ok := c.Get("result", k)
	if !ok || v.(string) != "value" {
		t.Fatalf("Get = %v, %v; want value, true", v, ok)
	}
	st := c.Stats()
	ks := st.Kinds["result"]
	if ks.Hits != 1 || ks.Misses != 1 || ks.Stores != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 store", ks)
	}
	if st.Bytes != 100 || st.Entries != 1 {
		t.Fatalf("bytes/entries = %d/%d; want 100/1", st.Bytes, st.Entries)
	}
}

func TestPeekDoesNotCountMisses(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20})
	if _, ok := c.Peek("result", key(1)); ok {
		t.Fatalf("peek hit on empty cache")
	}
	c.Put("result", key(1), 42, 8)
	if v, ok := c.Peek("result", key(1)); !ok || v.(int) != 42 {
		t.Fatalf("peek after put = %v, %v", v, ok)
	}
	ks := c.Stats().Kinds["result"]
	if ks.Misses != 0 {
		t.Fatalf("peek counted %d misses; want 0", ks.Misses)
	}
	if ks.Hits != 1 {
		t.Fatalf("peek counted %d hits; want 1", ks.Hits)
	}
}

func TestReplaceSameKey(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 1})
	c.Put("result", key(1), "old", 100)
	c.Put("result", key(1), "new", 40)
	v, ok := c.Get("result", key(1))
	if !ok || v.(string) != "new" {
		t.Fatalf("Get after replace = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 40 {
		t.Fatalf("after replace entries=%d bytes=%d; want 1/40", st.Entries, st.Bytes)
	}
}

func TestEvictionUnderTinyBudget(t *testing.T) {
	// One shard so the budget and the LRU order are exact.
	c := New(Options{MaxBytes: 250, Shards: 1})
	for i := 0; i < 5; i++ {
		c.Put("result", key(i), i, 100) // each insert over 2 entries evicts the oldest
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 200 {
		t.Fatalf("entries=%d bytes=%d; want 2 entries / 200 bytes under a 250-byte budget", st.Entries, st.Bytes)
	}
	ks := st.Kinds["result"]
	if ks.Evictions != 3 {
		t.Fatalf("evictions = %d; want 3", ks.Evictions)
	}
	if ks.Bytes != 200 {
		t.Fatalf("kind bytes = %d; want 200", ks.Bytes)
	}
	// The survivors must be the two most recently inserted.
	for i := 0; i < 3; i++ {
		if _, ok := c.Peek("result", key(i)); ok {
			t.Fatalf("key %d survived; should have been evicted LRU-first", i)
		}
	}
	for i := 3; i < 5; i++ {
		if _, ok := c.Peek("result", key(i)); !ok {
			t.Fatalf("key %d missing; most-recent entries should survive", i)
		}
	}
}

func TestLRUOrderRespectsGets(t *testing.T) {
	c := New(Options{MaxBytes: 300, Shards: 1})
	c.Put("r", key(1), 1, 100)
	c.Put("r", key(2), 2, 100)
	c.Put("r", key(3), 3, 100)
	c.Get("r", key(1)) // refresh 1; 2 is now coldest
	c.Put("r", key(4), 4, 100)
	if _, ok := c.Peek("r", key(2)); ok {
		t.Fatalf("key 2 survived; it was coldest after key 1 was touched")
	}
	if _, ok := c.Peek("r", key(1)); !ok {
		t.Fatalf("key 1 evicted despite recent Get")
	}
}

func TestOversizedValueDoesNotStick(t *testing.T) {
	c := New(Options{MaxBytes: 100, Shards: 1})
	c.Put("r", key(1), "huge", 1000)
	if _, ok := c.Peek("r", key(1)); ok {
		t.Fatalf("value larger than the whole budget stayed cached")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("stats after oversized insert = %+v; want empty", st)
	}
}

func TestDoComputesOnceSequentially(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20})
	calls := 0
	compute := func() (any, int64, error) {
		calls++
		return "v", 10, nil
	}
	v, hit, err := c.Do("result", key(1), compute)
	if err != nil || hit || v.(string) != "v" {
		t.Fatalf("first Do = %v, %v, %v; want v, false, nil", v, hit, err)
	}
	v, hit, err = c.Do("result", key(1), compute)
	if err != nil || !hit || v.(string) != "v" {
		t.Fatalf("second Do = %v, %v, %v; want v, true, nil", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times; want 1", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20})
	boom := errors.New("boom")
	_, _, err := c.Do("result", key(1), func() (any, int64, error) { return nil, 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do error = %v; want boom", err)
	}
	// The failure must not poison the key.
	v, hit, err := c.Do("result", key(1), func() (any, int64, error) { return "ok", 1, nil })
	if err != nil || hit || v.(string) != "ok" {
		t.Fatalf("Do after error = %v, %v, %v; want ok, false, nil", v, hit, err)
	}
}

// TestSingleflightCollapse hammers one key from many goroutines and proves
// exactly one compute runs; everyone else blocks and shares the value.
// Meant to run under -race.
func TestSingleflightCollapse(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20})
	k := key(7)
	const goroutines = 64

	var computes atomic.Int64
	gate := make(chan struct{})
	ready := make(chan struct{}, goroutines)

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready <- struct{}{}
			<-gate
			v, _, err := c.Do("result", k, func() (any, int64, error) {
				computes.Add(1)
				return "shared", 10, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if v.(string) != "shared" {
				t.Errorf("Do value = %v; want shared", v)
			}
		}()
	}
	for i := 0; i < goroutines; i++ {
		<-ready
	}
	close(gate)
	wg.Wait()

	// Racing goroutines can slip past each other before the first registers
	// its call, so "exactly one" is not guaranteed by the API — but the
	// common case collapses, and total computes must stay far below the
	// goroutine count. With the gate pattern above one compute is typical.
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key; want 1 (singleflight)", n)
	}
	st := c.Stats().Kinds["result"]
	if st.Misses != 1 {
		t.Fatalf("misses = %d; want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != goroutines-1 {
		t.Fatalf("hits+coalesced = %d; want %d", st.Hits+st.Coalesced, goroutines-1)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 16, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key((seed + i) % 37)
				kind := fmt.Sprintf("kind%d", i%3)
				if i%5 == 0 {
					c.Put(kind, k, i, int64(50+i%100))
				} else {
					c.Do(kind, k, func() (any, int64, error) { return i, 64, nil })
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.MaxBytes)
	}
	tot := st.Totals()
	if tot.Hits+tot.Misses+tot.Coalesced == 0 {
		t.Fatalf("no lookups recorded")
	}
}

func TestHitRatio(t *testing.T) {
	ks := KindStats{Hits: 3, Coalesced: 1, Misses: 4}
	if got := ks.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v; want 0.5", got)
	}
	if (KindStats{}).HitRatio() != 0 {
		t.Fatalf("empty HitRatio should be 0")
	}
}

func TestStatsKindNamesSorted(t *testing.T) {
	c := New(Options{})
	c.Put("zeta", key(1), 1, 1)
	c.Put("alpha", key(2), 1, 1)
	names := c.Stats().KindNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("KindNames = %v; want [alpha zeta]", names)
	}
}

// KindNames returns the kinds seen so far, sorted, for stable rendering.
func (st Stats) KindNames() []string {
	names := make([]string, 0, len(st.Kinds))
	for n := range st.Kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
