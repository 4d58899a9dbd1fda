package mem

import (
	"strings"
	"testing"
	"testing/quick"

	"ioatsim/internal/cost"
)

func TestSpaceAllocDisjoint(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(100, 0)
	b := s.Alloc(200, 0)
	if a.Addr == 0 || b.Addr == 0 {
		t.Fatal("allocated at address 0")
	}
	if a.End() > b.Addr {
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

func TestBufferSlice(t *testing.T) {
	s := NewSpace()
	b := s.Alloc(100, 0)
	sub := b.Slice(10, 20)
	if sub.Addr != b.Addr+10 || sub.Size != 20 {
		t.Fatalf("slice = %v", sub)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	b.Slice(90, 20)
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

func TestCacheHitAfterAccess(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	if c.Access(1000) {
		t.Fatal("cold access reported hit")
	}
	if !c.Access(1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(1023) { // same line (line 15 covers 960..1023)
		t.Fatal("same-line access missed")
	}
	if c.Access(1024) { // next line
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
	c.Access(0)   // set0 way A
	c.Access(256) // set0 way B
	c.Access(0)   // refresh A
	c.Access(512) // evicts B (LRU)
	if !c.Contains(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(256) {
		t.Fatal("LRU line survived")
	}
}

// TestCacheFreshStateIsZero pins the lazy-initialisation contract: a
// fresh cache's tag and metadata arrays are all zero (NewCache writes
// nothing, so untouched pages stay out of the resident set) and that
// state already audits clean as an empty cache, for every associativity.
func TestCacheFreshStateIsZero(t *testing.T) {
	for ways := 1; ways <= cost.MaxCacheWays; ways++ {
		c := NewCache(16*64*ways, 64, ways)
		for s := range c.tags {
			if c.tags[s] != [8]uint64{} || c.meta[s] != [2]uint64{} {
				t.Fatalf("%d ways: fresh set %d holds tags %#x, metadata %#x", ways, s, c.tags[s], c.meta[s])
			}
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("%d ways: fresh cache fails audit: %v", ways, err)
		}
		if occ := c.OccupiedLines(); occ != 0 {
			t.Fatalf("%d ways: fresh cache holds %d lines", ways, occ)
		}
	}
}

// TestCacheAuditCatchesCorruption corrupts one piece of a set's state at
// a time and requires Audit to name the broken invariant.
func TestCacheAuditCatchesCorruption(t *testing.T) {
	// Set 0 of a 4-set, 8-way cache with 64 B lines holds lines 0, 4 and 8
	// (addresses 0, 256, 512) in ways 0, 1 and 2, touched in that order.
	fill := func() *Cache {
		c := NewCache(4*8*64, 64, 8)
		for _, a := range []Addr{0, 256, 512} {
			c.Access(a)
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
