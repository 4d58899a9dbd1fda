package sweep

import (
	"fmt"
	"testing"
	"time"
)

// store records key -> blob at cost 0, with blob as its row. With every
// cost equal, the policy evicts in exactly LRU order, which the recency
// tests pin.
func (c *PointCache) store(key string, blob []byte) { c.put(key, blob, blob, 0) }

// lookup is fetch without the saved cost; a file's bytes are its row.
func (c *PointCache) lookup(key string) ([]byte, bool) {
	row, _, ok := c.fetch(key, func(blob []byte) (any, bool) { return blob, true })
	blob, _ := row.([]byte)
	return blob, ok
}

// has reports whether key is memoized, without counting as a use.
func (c *PointCache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.memo[key]
	return ok
}

// TestBoundEvictsOldestByEntries fills a 4-entry cache with ten
// entries of one equal cost: the victims must be exactly LRU's.
func TestBoundEvictsOldestByEntries(t *testing.T) {
	c := NewPointCache("").Bound(4, 0)
	for i := 0; i < 10; i++ {
		c.put(Key("lru", i), []byte{byte(i)}, nil, time.Millisecond)
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := c.Evictions(); got != 6 {
		t.Fatalf("Evictions = %d, want 6", got)
	}
	// The four most recent keys (6..9) survive; the oldest are gone.
	for i := 6; i < 10; i++ {
		if _, ok := c.lookup(Key("lru", i)); !ok {
			t.Errorf("recent key %d evicted", i)
		}
	}
	if _, ok := c.lookup(Key("lru", 0)); ok {
		t.Error("oldest key survived a full eviction cycle")
	}
}

func TestBoundEvictsByBytes(t *testing.T) {
	c := NewPointCache("")
	// Store via the internal path so payload sizes are exact.
	for i := 0; i < 8; i++ {
		c.store(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	if c.Bytes() != 800 {
		t.Fatalf("Bytes = %d, want 800", c.Bytes())
	}
	c.Bound(0, 250)
	if c.Bytes() > 250 {
		t.Fatalf("Bytes = %d after Bound(0, 250)", c.Bytes())
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestBoundSparesNewestOversizedEntry(t *testing.T) {
	c := NewPointCache("").Bound(0, 10)
	c.store("big", make([]byte, 1000))
	if c.Len() != 1 {
		t.Fatalf("a single oversized entry must stay memoized; Len = %d", c.Len())
	}
	c.store("big2", make([]byte, 2000))
	if c.Len() != 1 || c.Bytes() != 2000 {
		t.Fatalf("newest oversized entry must replace the older one; Len = %d Bytes = %d",
			c.Len(), c.Bytes())
	}
}

func TestLookupPromotesRecency(t *testing.T) {
	c := NewPointCache("").Bound(2, 0)
	c.store("a", []byte{1})
	c.store("b", []byte{2})
	if _, ok := c.lookup("a"); !ok { // promote a above b
		t.Fatal("a missing")
	}
	c.store("c", []byte{3}) // must evict b, not a
	if _, ok := c.lookup("a"); !ok {
		t.Error("a was evicted despite being promoted")
	}
	if _, ok := c.lookup("b"); ok {
		t.Error("b survived; LRU order ignored the promotion")
	}
}

func TestEvictionForgetsMemoOnlyNotDisk(t *testing.T) {
	dir := t.TempDir()
	c := NewPointCache(dir).Bound(1, 0)
	c.store("x", []byte{1, 2, 3})
	c.store("y", []byte{4}) // evicts x from the memo
	if got, ok := c.lookup("x"); !ok || len(got) != 3 {
		t.Fatalf("evicted entry not re-promoted from disk: ok=%v len=%d", ok, len(got))
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	c := NewPointCache("")
	c.store("k", make([]byte, 100))
	c.store("k", make([]byte, 40))
	if c.Bytes() != 40 || c.Len() != 1 {
		t.Fatalf("replace accounting wrong: Bytes=%d Len=%d", c.Bytes(), c.Len())
	}
}

// TestEvictsCheapBeforeOlderExpensive is the point of GreedyDual: LRU
// would drop the oldest entry, but re-simulating the cheap one costs
// less.
func TestEvictsCheapBeforeOlderExpensive(t *testing.T) {
	c := NewPointCache("").Bound(2, 0)
	c.put("dear", []byte{1}, nil, 40*time.Millisecond)
	c.put("cheap", []byte{2}, nil, time.Millisecond)
	c.put("next", []byte{3}, nil, time.Millisecond)
	if !c.has("dear") || c.has("cheap") || !c.has("next") {
		t.Fatalf("dear=%v cheap=%v next=%v; want the cheap entry evicted",
			c.has("dear"), c.has("cheap"), c.has("next"))
	}
}

// TestHitRefreshesPriority checks that a hit resets an entry's priority
// to the current L plus its cost, not only its recency.
func TestHitRefreshesPriority(t *testing.T) {
	c := NewPointCache("").Bound(3, 0)
	c.put("a", []byte{1}, nil, 10)
	c.put("b", []byte{2}, nil, 12)
	c.put("f1", []byte{3}, nil, 8)
	c.put("f2", []byte{4}, nil, 8) // evicts f1 (priority 8), so L = 8
	c.put("f3", []byte{5}, nil, 8) // evicts f2 (priority 8); f3 gets 8+8 = 16
	// a 10, b 12, f3 16; the hit lifts a to 8+10 = 18.
	if _, ok := c.lookup("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", []byte{6}, nil, 1) // the lowest priority is now b's 12
	if !c.has("a") || c.has("b") {
		t.Fatalf("a=%v b=%v; the hit must have refreshed a's priority past b's",
			c.has("a"), c.has("b"))
	}
}

// TestUnusedExpensiveEntryAgesOut checks that L rises with evictions, so
// an expensive entry that is never hit again cannot hold its slot
// forever against a stream of cheap ones.
func TestUnusedExpensiveEntryAgesOut(t *testing.T) {
	c := NewPointCache("").Bound(2, 0)
	c.put("dear", []byte{1}, nil, 100)
	for i := 0; i < 400; i++ {
		c.put(fmt.Sprint("cheap", i), []byte{2}, nil, 1)
		if c.has("dear") {
			continue
		}
		// Each store raises L by at most the cheap cost of 1, and the
		// entry goes only once the others' priorities L+1 reach its 100.
		if i < 98 {
			t.Fatalf("dear evicted after %d cheap stores, before L could pass its priority", i+1)
		}
		return
	}
	t.Fatal("an expensive entry never hit again outlived 400 cheaper stores")
}

// TestBoundsHoldUnderMixedCosts checks both caps after every store and
// hit of a stream with varied costs and sizes: at most 5 entries, and
// at most 500 bytes unless a single entry is larger on its own.
func TestBoundsHoldUnderMixedCosts(t *testing.T) {
	c := NewPointCache("").Bound(5, 500)
	for i := 0; i < 300; i++ {
		c.put(fmt.Sprint("k", i%40), make([]byte, 1+i*37%150), nil, time.Duration(i*7919%1000))
		if i%3 == 0 {
			c.lookup(fmt.Sprint("k", i*13%40))
		}
		if n, b := c.Len(), c.Bytes(); n > 5 || (b > 500 && n > 1) {
			t.Fatalf("after op %d: Len %d, Bytes %d over Bound(5, 500)", i, n, b)
		}
	}
	if c.Evictions() == 0 {
		t.Fatal("a stream over 40 keys never evicted")
	}
}

// refCache is the fuzzer's reference: the same policy, with the victim
// found by scanning every entry for the lowest (priority, use), skipping
// the newest.
type refCache struct {
	entries    map[string]*refEntry
	clock      time.Duration
	uses       uint64
	bytes      int64
	maxEntries int
	maxBytes   int64
	evictions  uint64
}

type refEntry struct {
	size       int64
	cost, prio time.Duration
	seq        uint64
}

func (r *refCache) use(e *refEntry) {
	r.uses++
	e.seq = r.uses
	e.prio = r.clock + e.cost
}

func (r *refCache) put(key string, size int64, cost time.Duration) {
	e := r.entries[key]
	if e == nil {
		e = &refEntry{}
		r.entries[key] = e
	}
	r.bytes += size - e.size
	e.size, e.cost = size, cost
	r.use(e)
	r.evict()
}

func (r *refCache) fetch(key string) {
	if e := r.entries[key]; e != nil {
		r.use(e)
	}
}

func (r *refCache) bound(maxEntries int, maxBytes int64) {
	r.maxEntries, r.maxBytes = maxEntries, maxBytes
	r.evict()
}

func (r *refCache) evict() {
	for ((r.maxEntries > 0 && len(r.entries) > r.maxEntries) ||
		(r.maxBytes > 0 && r.bytes > r.maxBytes)) && len(r.entries) > 1 {
		var vk string
		var v *refEntry
		for k, e := range r.entries {
			if e.seq == r.uses {
				continue
			}
			if v == nil || e.prio < v.prio || (e.prio == v.prio && e.seq < v.seq) {
				vk, v = k, e
			}
		}
		delete(r.entries, vk)
		r.bytes -= v.size
		r.clock = max(r.clock, v.prio)
		r.evictions++
	}
}

// FuzzPointCacheBound runs a stream of stores, lookups and Bound calls
// over a few keys, costs and sizes against refCache, and compares the
// keys present, Len, Bytes and Evictions after every operation. Each
// operation is three bytes: an opcode with a key, a size or cap, and a
// cost or byte cap.
func FuzzPointCacheBound(f *testing.F) {
	f.Add([]byte{0, 10, 5, 3, 10, 5, 6, 10, 5, 2, 2, 0, 9, 10, 1})
	f.Add([]byte{2, 3, 0, 0, 200, 100, 3, 1, 1, 6, 2, 0, 1, 0, 0, 0, 9, 0})
	f.Add([]byte{2, 1, 8, 0, 40, 1, 1, 255, 255, 4, 9, 1, 1, 0, 0, 7, 40, 1})
	// Inputs the fuzzer found against broken policies: L never rising, a
	// hit that leaves the priority alone, and L falling to a victim's
	// priority below it (the spared newest entry can sit below L).
	f.Add([]byte("00,B012102000A0900202"))
	f.Add([]byte("20100000790,200007\"00220B00"))
	f.Add([]byte("0089102010A09X0BX0"))
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewPointCache("")
		ref := &refCache{entries: map[string]*refEntry{}}
		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			key := keys[op/3%8]
			switch op % 3 {
			case 0:
				size, cost := int64(a%64), time.Duration(b%16)
				c.put(key, make([]byte, size), nil, cost)
				ref.put(key, size, cost)
			case 1:
				c.fetch(key, nil)
				ref.fetch(key)
			case 2:
				maxEntries, maxBytes := int(a%6), int64(b%4)*48
				c.Bound(maxEntries, maxBytes)
				ref.bound(maxEntries, maxBytes)
			}
			for _, k := range keys {
				if _, want := ref.entries[k]; c.has(k) != want {
					t.Fatalf("after op %d (%d %d %d): %s memoized %v, reference %v",
						i/3, op, a, b, k, c.has(k), want)
				}
			}
			if c.Len() != len(ref.entries) || c.Bytes() != ref.bytes || c.Evictions() != ref.evictions {
				t.Fatalf("after op %d (%d %d %d): Len %d Bytes %d Evictions %d; reference %d, %d, %d",
					i/3, op, a, b, c.Len(), c.Bytes(), c.Evictions(),
					len(ref.entries), ref.bytes, ref.evictions)
			}
		}
	})
}

// BenchmarkPointCacheChurn stores new keys with varied costs into a
// full cache, so every store also evicts one entry. The entry counts
// show how eviction cost grows with the bound.
func BenchmarkPointCacheChurn(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprint("entries=", n), func(b *testing.B) {
			keys := make([]string, 4*n)
			for i := range keys {
				keys[i] = Key("churn", i)
			}
			blob := make([]byte, 128)
			c := NewPointCache("").Bound(n, 0)
			for i := 0; i < n; i++ {
				c.put(keys[i], blob, nil, time.Duration(i*7919%4000)*time.Microsecond)
			}
			ev0 := c.Evictions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (n + i) % len(keys)
				c.put(keys[k], blob, nil, time.Duration(k*7919%4000)*time.Microsecond)
			}
			b.ReportMetric(float64(c.Evictions()-ev0)/float64(b.N), "evictions/op")
		})
	}
}
