package mem

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/trace"
)

func TestSpaceAllocDisjoint(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(100, 0)
	b := s.Alloc(200, 0)
	if a.Addr == 0 || b.Addr == 0 {
		t.Fatal("allocated at address 0")
	}
	if a.Addr+Addr(a.Size) > b.Addr {
		t.Fatalf("overlapping allocations: %v %v", a, b)
	}
}

func TestSpaceAlignment(t *testing.T) {
	s := NewSpace()
	s.Alloc(3, 0)
	b := s.Alloc(10, 256)
	if b.Addr%256 != 0 {
		t.Fatalf("addr %d not 256-aligned", b.Addr)
	}
}

func TestPoolLIFOReuse(t *testing.T) {
	s := NewSpace()
	p := NewPool(s, 2048)
	a := p.Get()
	p.Put(a)
	b := p.Get()
	if b.Addr != a.Addr {
		t.Fatal("pool did not reuse the most recently freed buffer")
	}
	if p.Total != 1 {
		t.Fatalf("pool created %d buffers, want 1", p.Total)
	}
}

func TestPoolGrowsUnderBacklog(t *testing.T) {
	s := NewSpace()
	p := NewPool(s, 2048)
	var held []Buffer
	for i := 0; i < 100; i++ {
		held = append(held, p.Get())
	}
	if p.MaxLive != 100 || p.Total != 100 {
		t.Fatalf("MaxLive=%d Total=%d, want 100/100", p.MaxLive, p.Total)
	}
	for _, b := range held {
		p.Put(b)
	}
	if p.Live != 0 {
		t.Fatalf("Live = %d after returning all", p.Live)
	}
}

// hit touches the line holding addr and reports whether it hit.
func hit(c *Cache, addr Addr) bool {
	h, _ := c.AccessLines(addr, 1)
	return h == 1
}

func TestCacheHitAfterAccess(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	if hit(c, 1000) {
		t.Fatal("cold access reported hit")
	}
	if !hit(c, 1000) {
		t.Fatal("second access missed")
	}
	if !hit(c, 1023) { // same line (line 15 covers 960..1023)
		t.Fatal("same-line access missed")
	}
	if hit(c, 1024) { // next line
		t.Fatal("next-line access hit while cold")
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	// Fill 2x capacity with a streaming pass, then re-touch the start:
	// it must have been evicted.
	c.AccessRange(0, 128*1024)
	if c.Contains(0) {
		t.Fatal("start of 2x-capacity stream still resident")
	}
	// A working set half the capacity stays resident.
	c.Flush()
	c.AccessRange(0, 32*1024)
	if got := c.Resident(0, 32*1024); got != 32*1024/64 {
		t.Fatalf("resident = %d lines, want all %d", got, 32*1024/64)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way cache with 2 sets: lines mapping to set 0 are addresses
	// 0, 256, 512, ... (line 64, sets 2).
	c := NewCache(256, 64, 2)
	c.AccessLines(0, 1)   // set0 way A
	c.AccessLines(256, 1) // set0 way B
	c.AccessLines(0, 1)   // refresh A
	c.AccessLines(512, 1) // evicts B (LRU)
	if !c.Contains(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(256) {
		t.Fatal("LRU line survived")
	}
}

// TestCacheFreshStateIsZero pins the initialisation contract: a new
// cache's tag and metadata arrays are all zero, whether freshly made
// (NewCache writes nothing, so untouched pages stay out of the resident
// set) or recycled from a cache that was filled and then released, and
// that state already audits clean as an empty cache, for every
// associativity.
func TestCacheFreshStateIsZero(t *testing.T) {
	for ways := 1; ways <= cost.MaxCacheWays; ways++ {
		size := 16 * 64 * ways
		c := NewCache(size, 64, ways)
		for _, state := range []string{"fresh", "recycled"} {
			for s := range c.tags {
				if c.tags[s] != [8]uint64{} || c.meta[s] != [2]uint64{} {
					t.Fatalf("%d ways: %s set %d holds tags %#x, metadata %#x", ways, state, s, c.tags[s], c.meta[s])
				}
			}
			if err := c.Audit(); err != nil {
				t.Fatalf("%d ways: %s cache fails audit: %v", ways, state, err)
			}
			if occ := c.OccupiedLines(); occ != 0 {
				t.Fatalf("%d ways: %s cache holds %d lines", ways, state, occ)
			}
			c.AccessRange(0, 3*size)
			c.Invalidate(Addr(size), size/2)
			held := &c.tags[0]
			c.Release()
			if c = NewCache(size, 64, ways); &c.tags[0] != held {
				t.Fatalf("%d ways: NewCache did not reuse the state just released", ways)
			}
		}
	}
}

// TestCacheReleaseThenAccessPanics: a released cache keeps no state, so
// every access panics rather than touch a state a newer cache may own;
// its counters stay readable, and a second Release does nothing.
func TestCacheReleaseThenAccessPanics(t *testing.T) {
	c := NewCache(16*64*8, 64, 8)
	c.AccessRange(0, 4096)
	c.Release()
	c.Release()
	next := NewCache(16*64*8, 64, 8) // owns the released state now
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"AccessLines", func() { c.AccessLines(0, 1) }},
		{"AccessRange", func() { c.AccessRange(0, 64) }},
		{"Install", func() { c.Install(0, 64) }},
		{"Invalidate", func() { c.Invalidate(0, 64) }},
		{"Contains", func() { c.Contains(0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released cache did not panic", op.name)
				}
			}()
			op.fn()
		}()
	}
	if c.Hits+c.Misses != 64 || next.OccupiedLines() != 0 {
		t.Fatalf("released cache counts %d accesses, want 64; its successor holds %d lines, want 0",
			c.Hits+c.Misses, next.OccupiedLines())
	}
}

// TestCacheMemoForgotten: a flushed cache, a released one and a new one
// that reuses a released state never answer a walk from a memo that
// remembered lines they no longer hold.
func TestCacheMemoForgotten(t *testing.T) {
	const size, chunk = 64 * 64 * 8, 64 * 64 // 64 sets; a 64-line walk
	remembered := func() *Cache {
		c := NewCache(size, 64, 8)
		c.AccessRange(0, chunk)
		if h, _ := c.AccessRange(0, chunk); h != 64 || c.nmemo != 1 || c.lazy != 1 {
			t.Fatalf("repeat hit %d of 64 lines with %d walks remembered, %d owing touches; want 64, 1, 1",
				h, c.nmemo, c.lazy)
		}
		return c
	}
	c := remembered()
	c.Flush()
	if h, m := c.AccessRange(0, chunk); h != 0 || m != 64 {
		t.Fatalf("flushed cache: %d hits, %d misses; want 0 and 64", h, m)
	}
	c = remembered()
	held := &c.tags[0]
	c.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("released cache answered a remembered walk")
			}
		}()
		c.AccessRange(0, chunk)
	}()
	if c = NewCache(size, 64, 8); &c.tags[0] != held {
		t.Fatal("NewCache did not reuse the state just released")
	}
	if h, m := c.AccessRange(0, chunk); h != 0 || m != 64 {
		t.Fatalf("recycled cache: %d hits, %d misses; want 0 and 64", h, m)
	}
}

// TestCacheRecycleBounded pins the free list's bound: a NewCache that
// finds no released state of its size drops the oldest one, so the list
// never holds more states than caches were live at once, however many
// geometries come and go.
func TestCacheRecycleBounded(t *testing.T) {
	released.states = nil
	newCache := func(nsets int) *Cache { return NewCache(nsets*64*8, 64, 8) }
	a, b := newCache(16), newCache(32)
	a.Release()
	b.Release()
	for _, step := range []struct {
		nsets, left int
	}{
		{64, 1}, // no 64-set state: drops a, the oldest
		{16, 0}, // a is gone, so nothing fits: drops b
		{32, 0},
	} {
		if c := newCache(step.nsets); c.OccupiedLines() != 0 || len(released.states) != step.left {
			t.Fatalf("after NewCache of %d sets: %d lines, %d released states left; want 0 and %d",
				step.nsets, c.OccupiedLines(), len(released.states), step.left)
		}
	}
}

// TestCacheRecycleConcurrent builds, uses and releases caches of two
// geometries from several goroutines at once (run under -race), and
// requires that no two live caches ever share a state and that every
// new cache starts empty.
func TestCacheRecycleConcurrent(t *testing.T) {
	var (
		mu   sync.Mutex
		live = map[*[8]uint64]bool{}
		wg   sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ways := 4 << (i % 2)
				c := NewCache(64*64*ways, 64, ways)
				key := &c.tags[0]
				mu.Lock()
				shared := live[key]
				live[key] = true
				mu.Unlock()
				if shared {
					t.Error("two live caches share one state")
					return
				}
				if occ := c.OccupiedLines(); occ != 0 {
					t.Errorf("new cache holds %d lines", occ)
				}
				c.AccessRange(Addr(g*i*4096), 16*4096)
				mu.Lock()
				delete(live, key)
				mu.Unlock()
				c.Release()
			}
		}()
	}
	wg.Wait()
}

// TestCacheAuditCatchesCorruption corrupts one piece of a set's state at
// a time and requires Audit to name the broken invariant.
func TestCacheAuditCatchesCorruption(t *testing.T) {
	// Set 0 of a 4-set, 8-way cache with 64 B lines holds lines 0, 4 and 8
	// (addresses 0, 256, 512) in ways 0, 1 and 2, touched in that order.
	fill := func() *Cache {
		c := NewCache(4*8*64, 64, 8)
		for _, a := range []Addr{0, 256, 512} {
			c.AccessLines(a, 1)
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("uncorrupted cache fails audit: %v", err)
		}
		return c
	}
	cases := []struct {
		name, want string
		corrupt    func(c *Cache)
	}{
		{"matrix bit", "both or neither", func(c *Cache) {
			c.meta[0][1] ^= 1 << (8*2 + 0) // way 2 no longer newer than way 0
		}},
		{"diagonal", "diagonal", func(c *Cache) {
			c.meta[0][1] |= 1 << (8*1 + 1)
		}},
		{"cycle", "not a total order", func(c *Cache) {
			// 0 newer than 1, 1 newer than 2, 2 newer than 0.
			c.meta[0][1] = 1<<(8*0+1) | 1<<(8*1+2) | 1<<(8*2+0)
		}},
		{"fingerprint", "fingerprint", func(c *Cache) {
			c.meta[0][0] ^= 0x01 << 8
		}},
		{"fingerprint on invalid way", "fingerprint", func(c *Cache) {
			c.meta[0][0] |= 0x80 << (8 * 5)
		}},
		{"duplicate tag", "duplicate", func(c *Cache) {
			c.tags[0][3] = c.tags[0][2]
			c.meta[0][0] |= c.meta[0][0] & (0xff << 16) << 8 // way 2's fingerprint
		}},
		{"wrong-set tag", "indexes set", func(c *Cache) {
			c.tags[0][1]++ // line 5 belongs to set 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := fill()
			tc.corrupt(c)
			err := c.Audit()
			if err == nil {
				t.Fatal("corrupted cache audits clean")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	c.AccessRange(4096, 1024)
	c.Invalidate(4096, 1024)
	if got := c.Resident(4096, 1024); got != 0 {
		t.Fatalf("resident after invalidate = %d", got)
	}
}

func TestCacheInstall(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	c.Install(8192, 128)
	h, m := c.AccessRange(8192, 128)
	if m != 0 || h != 2 {
		t.Fatalf("after install: hits=%d misses=%d, want 2/0", h, m)
	}
}

func TestCacheStatsCount(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	c.AccessRange(0, 6400) // 100 lines cold
	if c.Misses != 100 || c.Hits != 0 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	c.AccessRange(0, 6400)
	if c.Hits != 100 {
		t.Fatalf("hits=%d, want 100", c.Hits)
	}
}

// Property: Resident never exceeds the number of lines in the range, and
// after accessing a range every line of a range no larger than one way's
// worth per set is resident.
func TestCacheResidencyProperty(t *testing.T) {
	f := func(start uint32, n uint16) bool {
		c := NewCache(64*1024, 64, 8)
		nn := int(n)%8192 + 1
		addr := Addr(start)
		c.AccessRange(addr, nn)
		lines := int((uint64(addr)+uint64(nn)-1)/64 - uint64(addr)/64 + 1)
		r := c.Resident(addr, nn)
		if r > lines {
			return false
		}
		// 8K range in a 64K cache always fits entirely.
		return r == lines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModelCopyCacheVsNocache(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	src := m.Space.Alloc(64*cost.KB, 0)
	dst := m.Space.Alloc(64*cost.KB, 0)

	cold := m.CopyCost(src.Addr, dst.Addr, 64*cost.KB)
	warm := m.CopyCost(src.Addr, dst.Addr, 64*cost.KB)
	if warm >= cold {
		t.Fatalf("warm copy (%v) not faster than cold (%v)", warm, cold)
	}
	// Calibration: cold ~ 43 us (1.5 GB/s), warm ~ 8 us (8 GB/s).
	if cold < 35000 || cold > 55000 {
		t.Fatalf("cold 64K copy = %v ns, want ~43000", cold.Nanoseconds())
	}
	if warm < 6000 || warm > 12000 {
		t.Fatalf("warm 64K copy = %v ns, want ~8200", warm.Nanoseconds())
	}
}

func TestModelCopyPollutesCache(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	hot := m.Space.Alloc(256*cost.KB, 0)
	m.TouchCost(hot.Addr, hot.Size) // make it resident
	if m.Cache.Resident(hot.Addr, hot.Size) == 0 {
		t.Fatal("warm-up failed")
	}
	// A 4 MB copy (2x cache) evicts the hot set.
	src := m.Space.Alloc(4*cost.MB, 0)
	dst := m.Space.Alloc(4*cost.MB, 0)
	m.CopyCost(src.Addr, dst.Addr, 4*cost.MB)
	if got := m.Cache.Resident(hot.Addr, hot.Size); got > hot.Size/p.CacheLine/10 {
		t.Fatalf("hot set survived a 2x-cache copy: %d lines resident", got)
	}
}

func TestModelDMAWriteAvoidsPollution(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	hot := m.Space.Alloc(256*cost.KB, 0)
	m.TouchCost(hot.Addr, hot.Size)
	before := m.Cache.Resident(hot.Addr, hot.Size)
	dst := m.Space.Alloc(4*cost.MB, 0)
	m.DMAWrite(dst.Addr, dst.Size) // engine copy does not pass through cache
	after := m.Cache.Resident(hot.Addr, hot.Size)
	if after != before {
		t.Fatalf("DMA write disturbed unrelated hot lines: %d -> %d", before, after)
	}
}

func TestModelRandomCost(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	b := m.Space.Alloc(1024, 0)
	cold := m.RandomCost(b.Addr, 2)
	warm := m.RandomCost(b.Addr, 2)
	if cold != 2*p.RandMiss {
		t.Fatalf("cold random = %v, want %v", cold, 2*p.RandMiss)
	}
	if warm != 2*p.RandHit {
		t.Fatalf("warm random = %v, want %v", warm, 2*p.RandHit)
	}
}

func TestModelZeroSizes(t *testing.T) {
	m := NewModel(cost.Default())
	if m.CopyCost(0, 0, 0) != 0 || m.TouchCost(0, 0) != 0 || m.RandomCost(0, 0) != 0 {
		t.Fatal("zero-size operations must cost nothing")
	}
}

// TestModelRandomEachCostMatchesRandomCost prices the same random
// addresses through RandomEachCost on one model and through one
// RandomCost(a, 1) per address on its twin, both checked and profiled,
// over a working set half as large again as the cache. Every batch must
// cost the same, and the models must end with the same counters, the
// same profiler totals, the same count of audited operations and no
// violation.
func TestModelRandomEachCostMatchesRandomCost(t *testing.T) {
	p := cost.Default()
	type twin struct {
		m    *Model
		chk  *check.Checker
		prof *trace.Profiler
	}
	newTwin := func() twin {
		tw := twin{m: NewModel(p), chk: check.New(), prof: trace.NewProfiler()}
		tw.m.SetChecker(tw.chk)
		tw.m.SetObs(&trace.Obs{P: tw.prof})
		return tw
	}
	each, single := newTwin(), newTwin()
	ws := each.m.Space.Alloc(3*p.CacheSize/2, 0)
	lines := ws.Size / p.CacheLine

	rnd := uint64(7)
	var addrs []Addr
	for _, n := range []int{0, 1, 64, 1024, 3, 4096, 64, 1000, 5000} {
		addrs = addrs[:0]
		for range n {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			addrs = append(addrs, ws.Addr+Addr(int(rnd>>33)%lines*p.CacheLine+int(rnd>>20)%p.CacheLine))
		}
		got := each.m.RandomEachCost(addrs)
		var want time.Duration
		for _, a := range addrs {
			want += single.m.RandomCost(a, 1)
		}
		if got != want {
			t.Fatalf("%d addresses: RandomEachCost = %v, RandomCost per address = %v", n, got, want)
		}
	}
	e, s := each.m, single.m
	if e.Cache.Hits != s.Cache.Hits || e.Cache.Misses != s.Cache.Misses {
		t.Fatalf("counters %d/%d, per address %d/%d", e.Cache.Hits, e.Cache.Misses, s.Cache.Hits, s.Cache.Misses)
	}
	if e.Cache.Hits == 0 || e.Cache.Misses == 0 {
		t.Fatalf("want both hits and misses, got %d/%d", e.Cache.Hits, e.Cache.Misses)
	}
	for _, site := range []trace.Site{trace.SiteHeaderHit, trace.SiteHeaderMiss} {
		if g, w := each.prof.Self(site), single.prof.Self(site); g != w {
			t.Fatalf("profiler %v: %v, per address %v", site, g, w)
		}
	}
	if e.ops != s.ops || e.ops < 2*auditEvery {
		t.Fatalf("audit counter %d, per address %d (want at least %d)", e.ops, s.ops, 2*auditEvery)
	}
	for _, tw := range []twin{each, single} {
		tw.chk.Finish()
		if err := tw.chk.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
