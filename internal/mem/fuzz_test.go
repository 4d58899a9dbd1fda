package mem

import (
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
)

// FuzzCacheAccessRange hammers a fuzz-chosen cache geometry with an
// arbitrary stream of range accesses, direct installs, invalidations and
// flushes, then audits the whole structure: occupancy never exceeds
// capacity, every tag indexes its own set, no set holds duplicates, and
// hit/miss accounting matches the lines touched.
func FuzzCacheAccessRange(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), []byte{0, 1, 2, 3, 255, 17, 64, 128})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{9, 9, 9})
	f.Add(uint8(5), uint8(1), uint8(7), []byte{})

	f.Fuzz(func(t *testing.T, lineSel, waySel, setSel uint8, ops []byte) {
		lineSize := 16 << (int(lineSel) % 5) // 16..256, power of two
		ways := 1 + int(waySel)%8            // 1..8
		nsets := 1 << (int(setSel) % 7)      // 1..64, power of two
		size := lineSize * ways * nsets
		c := NewCache(size, lineSize, ways)

		span := 4 * size // address range spanning several aliasing rounds
		var accHits, accMisses int
		for i := 0; i+2 < len(ops); i += 3 {
			addr := Addr(int(ops[i]) * span / 256)
			n := int(ops[i+1]) * span / 256
			switch ops[i+2] % 5 {
			case 0:
				hits, misses := c.AccessRange(addr, n)
				lines := spanLines(c, addr, n)
				if hits+misses != lines {
					t.Fatalf("AccessRange(%d, %d): %d hits + %d misses != %d lines touched",
						addr, n, hits, misses, lines)
				}
				accHits += hits
				accMisses += misses
			case 1:
				c.AccessLines(addr, 1)
			case 2:
				if ev := c.Install(addr, n); ev > spanLines(c, addr, n) {
					t.Fatalf("Install(%d, %d) evicted %d lines for %d installed",
						addr, n, ev, spanLines(c, addr, n))
				}
			case 3:
				c.Invalidate(addr, n)
			case 4:
				c.Flush()
				if occ := c.OccupiedLines(); occ != 0 {
					t.Fatalf("flushed cache still holds %d lines", occ)
				}
			}
			if occ := c.OccupiedLines(); occ > c.Lines() {
				t.Fatalf("occupancy %d lines exceeds capacity %d", occ, c.Lines())
			}
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("structural audit failed: %v", err)
		}
		// Range accesses alone can never over-count: every resident line
		// was brought in by some miss.
		if int(c.Hits) < accHits || int(c.Misses) < accMisses {
			t.Fatalf("global counters (%d/%d) below range-access counters (%d/%d)",
				c.Hits, c.Misses, accHits, accMisses)
		}
	})
}

// spanLines returns how many cache lines [addr, addr+n) covers.
func spanLines(c *Cache, addr Addr, n int) int {
	if n <= 0 {
		return 0
	}
	first := uint64(addr) >> c.shift
	last := (uint64(addr) + uint64(n) - 1) >> c.shift
	return int(last - first + 1)
}

// refCache is the stamp-based LRU cache that Cache must match operation
// by operation: per-way tags (line + 1, 0 = invalid) and LRU stamps from
// one global tick, with the victim the lowest-indexed way holding the
// smallest stamp (an invalid way holds stamp 0).
type refCache struct {
	shift        uint
	nsets, ways  int
	tags, last   []uint64
	tick         uint64
	hits, misses int
}

func newRefCache(size, lineSize, ways int) *refCache {
	nsets := size / (lineSize * ways)
	return &refCache{
		shift: uint(bits.TrailingZeros(uint(lineSize))),
		nsets: nsets,
		ways:  ways,
		tags:  make([]uint64, nsets*ways),
		last:  make([]uint64, nsets*ways),
	}
}

// set returns the tag and stamp slices of the set holding line.
func (r *refCache) set(line uint64) (tags, last []uint64) {
	base := int(line%uint64(r.nsets)) * r.ways
	return r.tags[base : base+r.ways], r.last[base : base+r.ways]
}

// touch references line and reports whether it hit and whether a miss
// evicted a valid line.
func (r *refCache) touch(line uint64) (hit, evicted bool) {
	r.tick++
	tags, last := r.set(line)
	for w := range tags {
		if tags[w] == line+1 {
			last[w] = r.tick
			return true, false
		}
	}
	victim := 0
	for w := range last {
		if last[w] < last[victim] {
			victim = w
		}
	}
	evicted = tags[victim] != 0
	tags[victim], last[victim] = line+1, r.tick
	return false, evicted
}

// span returns the first line and the line count of [addr, addr+n).
func (r *refCache) span(addr Addr, n int) (uint64, int) {
	if n <= 0 {
		return 0, 0
	}
	first := uint64(addr) >> r.shift
	return first, int((uint64(addr)+uint64(n)-1)>>r.shift-first) + 1
}

func (r *refCache) accessLines(first uint64, n int) (hits, misses int) {
	for i := 0; i < n; i++ {
		if hit, _ := r.touch(first + uint64(i)); hit {
			hits++
		} else {
			misses++
		}
	}
	r.hits += hits
	r.misses += misses
	return hits, misses
}

func (r *refCache) install(addr Addr, n int) (evicted int) {
	first, lines := r.span(addr, n)
	for i := 0; i < lines; i++ {
		if _, ev := r.touch(first + uint64(i)); ev {
			evicted++
		}
	}
	return evicted
}

func (r *refCache) invalidate(addr Addr, n int) {
	first, lines := r.span(addr, n)
	for line := first; line < first+uint64(lines); line++ {
		tags, last := r.set(line)
		for w := range tags {
			if tags[w] == line+1 {
				tags[w], last[w] = 0, 0
			}
		}
	}
}

func (r *refCache) flush() {
	clear(r.tags)
	clear(r.last)
}

func (r *refCache) contains(addr Addr) bool {
	line := uint64(addr) >> r.shift
	tags, _ := r.set(line)
	for _, t := range tags {
		if t == line+1 {
			return true
		}
	}
	return false
}

// FuzzCacheDifferential drives Cache and the stamp-based refCache with
// the same fuzz-chosen geometry (1-8 ways) and operation stream through
// diffCache, which requires identical behaviour after every operation.
func FuzzCacheDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(2), []byte{0, 40, 0, 64, 40, 4, 8, 40, 0, 0, 0, 1})
	f.Add(uint8(1), uint8(1), uint8(0), []byte{0, 255, 0, 0, 4, 4, 0, 255, 3, 1, 9, 2})
	// A line and its alias one fingerprint period up, in one set of two
	// ways: both must miss, and the alias must not read as resident.
	f.Add(uint8(0), uint8(1), uint8(0), []byte{0, 2, 0, 0, 2, 0x80, 0, 2, 0x81, 0, 2, 4, 0, 2, 0x80})
	// Long pseudo-random streams over every associativity, so plain
	// go test exercises each geometry's victim choice in depth.
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= 8; ways++ {
		ops := make([]byte, 3*400)
		rng.Read(ops)
		f.Add(uint8(ways), uint8(ways-1), uint8(ways), ops)
	}
	// Batches of random single lines over both windows, in 2- and 8-way
	// sets, between range accesses and invalidations.
	f.Add(uint8(1), uint8(1), uint8(2), []byte{9, 40, 7, 0, 64, 0, 17, 63, 7, 0, 200, 4, 200, 33, 0x87, 3, 62, 7})
	f.Add(uint8(0), uint8(7), uint8(1), []byte{1, 63, 7, 5, 50, 0x87, 0, 255, 0x80, 77, 61, 7, 0, 0, 7})
	// Repeated walks of 32 to 64 lines in 32- and 64-set geometries, the
	// ones the walk memo answers: a 64-line range walked, repeated from
	// the memo, Installed, repeated in the alias window, then evicted by a
	// conflicting walk and repeated again.
	f.Add(uint8(2), uint8(1), uint8(6), []byte{0, 32, 0, 0, 0, 8, 0, 1, 8, 0, 0, 0x88, 128, 32, 0, 1, 0, 8, 2, 3, 4, 0, 0, 8})
	for i, g := range memoGeometries {
		f.Add(uint8(2), uint8(g.ways-1), g.setSel, memoOps(rand.New(rand.NewSource(int64(i+1))), g, 300))
	}

	f.Fuzz(diffCache)
}

// diffCache drives a Cache and a refCache of the geometry the three
// selectors pick through the operations ops encodes, three bytes each,
// and requires identical behaviour after every operation: every return
// value (Install's eviction count included), the Hits/Misses counters,
// residency of every line of the address span, and a clean Audit. Any
// divergence in victim choice shows up as a residency mismatch. One
// operation releases the cache and builds a new one, which reuses the
// released state and must behave as a fresh reference cache.
//
// The span holds at most 32 lines per set, fewer than the 128
// fingerprints a set tells apart, so no two of its lines alias. An
// operation whose kind byte has bit 7 set therefore addresses a second
// window, one fingerprint period (128 * sets * line size bytes) above
// the first: its lines share a set and a fingerprint with the first
// window's, so only the tag compare tells them apart. Residency is
// checked over both windows.
//
// An AccessEach operation touches up to 63 addresses drawn from the
// operation's bytes, each in either window and at any offset within its
// line, and must match the reference's single-line accesses in order.
//
// A repeat operation walks the range of one of the earlier AccessRange,
// Install and Invalidate operations again, counted back from the latest
// by its first byte, in its own window, as an AccessRange (even second
// byte) or an Install: in 32- and 64-set geometries those are the walks
// of 32 lines or more, within one pass of the sets, that the cache's
// walk memo answers without visiting a set.
func diffCache(t *testing.T, lineSel, waySel, setSel uint8, ops []byte) {
	lineSize := 16 << (int(lineSel) % 5) // 16..256, power of two
	ways := 1 + int(waySel)%8            // 1..8
	nsets := 1 << (int(setSel) % 7)      // 1..64, power of two
	size := lineSize * ways * nsets
	c := NewCache(size, lineSize, ways)
	r := newRefCache(size, lineSize, ways)

	span := 4 * size // address range spanning several aliasing rounds
	spanLines := span / lineSize
	period := Addr(128 * nsets * lineSize) // same set, same fingerprint
	type walked struct {
		addr Addr // within the first window
		n    int
	}
	var (
		addrs  []Addr
		ranges []walked
	)
	for i := 0; i+2 < len(ops); i += 3 {
		window := Addr(ops[i+2]>>7) * period
		addr := Addr(int(ops[i])*span/256) + window
		n := int(ops[i+1]) * span / 256
		kind := (ops[i+2] & 0x7f) % 9
		switch kind {
		case 0, 3, 4:
			ranges = append(ranges, walked{addr - window, n})
		}
		switch kind {
		case 0:
			h, m := c.AccessRange(addr, n)
			rh, rm := r.accessLines(r.span(addr, n))
			if h != rh || m != rm {
				t.Fatalf("op %d AccessRange(%d, %d) = %d/%d, reference %d/%d", i/3, addr, n, h, m, rh, rm)
			}
		case 1:
			h, m := c.AccessLines(addr, 1)
			rh, rm := r.accessLines(uint64(addr)>>r.shift, 1)
			if h != rh || m != rm {
				t.Fatalf("op %d AccessLines(%d, 1) = %d/%d, reference %d/%d", i/3, addr, h, m, rh, rm)
			}
		case 2:
			nLines := int(ops[i+1]) * spanLines / 256
			h, m := c.AccessLines(addr, nLines)
			rh, rm := r.accessLines(uint64(addr)>>r.shift, nLines)
			if h != rh || m != rm {
				t.Fatalf("op %d AccessLines(%d, %d) = %d/%d, reference %d/%d", i/3, addr, nLines, h, m, rh, rm)
			}
		case 3:
			if ev, rev := c.Install(addr, n), r.install(addr, n); ev != rev {
				t.Fatalf("op %d Install(%d, %d) evicted %d, reference %d", i/3, addr, n, ev, rev)
			}
		case 4:
			c.Invalidate(addr, n)
			r.invalidate(addr, n)
		case 5:
			c.Flush()
			r.flush()
		case 6:
			c.Release()
			c = NewCache(size, lineSize, ways)
			r = newRefCache(size, lineSize, ways)
		case 7:
			addrs = addrs[:0]
			x := uint64(i)<<16 | uint64(ops[i])<<8 | uint64(ops[i+1])
			for range int(ops[i+1]) % 64 {
				x = x*6364136223846793005 + 1442695040888963407
				a := Addr(x>>33) % Addr(span)
				addrs = append(addrs, a+Addr(x>>32&1)*period)
			}
			h, m := c.AccessEach(addrs)
			var rh, rm int
			for _, a := range addrs {
				eh, em := r.accessLines(uint64(a)>>r.shift, 1)
				rh += eh
				rm += em
			}
			if h != rh || m != rm {
				t.Fatalf("op %d AccessEach(%v) = %d/%d, reference %d/%d", i/3, addrs, h, m, rh, rm)
			}
		case 8:
			if len(ranges) == 0 {
				break
			}
			w := ranges[len(ranges)-1-int(ops[i])%len(ranges)]
			a := w.addr + window
			if ops[i+1]&1 == 0 {
				h, m := c.AccessRange(a, w.n)
				rh, rm := r.accessLines(r.span(a, w.n))
				if h != rh || m != rm {
					t.Fatalf("op %d repeats AccessRange(%d, %d) = %d/%d, reference %d/%d", i/3, a, w.n, h, m, rh, rm)
				}
			} else if ev, rev := c.Install(a, w.n), r.install(a, w.n); ev != rev {
				t.Fatalf("op %d repeats Install(%d, %d) evicted %d, reference %d", i/3, a, w.n, ev, rev)
			}
		}
		if int(c.Hits) != r.hits || int(c.Misses) != r.misses {
			t.Fatalf("op %d (kind %d): counters %d/%d, reference %d/%d",
				i/3, kind, c.Hits, c.Misses, r.hits, r.misses)
		}
		for _, base := range [2]Addr{0, period} {
			for a := base; a < base+Addr(span); a += Addr(lineSize) {
				if got, want := c.Contains(a), r.contains(a); got != want {
					t.Fatalf("op %d (kind %d): Contains(%d) = %v, reference %v", i/3, kind, a, got, want)
				}
			}
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("op %d (kind %d): audit: %v", i/3, kind, err)
		}
	}
}

// memoGeometry is a cache geometry of 64-byte lines (line selector 2)
// in which diffCache's ranges of long bytes span 32 lines or more and at
// most one pass of the sets: the walks the memo remembers.
type memoGeometry struct {
	setSel uint8 // 5: 32 sets, 6: 64 sets
	ways   int
	long   [2]byte // the range-length bytes that make such a walk
}

var memoGeometries = []memoGeometry{
	{6, 2, [2]byte{16, 32}}, // 32-64 lines
	{6, 4, [2]byte{8, 16}},  // 32-64 lines
	{5, 4, [2]byte{16, 16}}, // 32 lines
	{5, 8, [2]byte{8, 8}},   // 32 lines
}

// memoOps returns count diffCache operations for geometry g that keep a
// few fixed long ranges resident and walk them again and again, by
// AccessRange, Install and the repeat operation, in both windows,
// between short walks, AccessEach batches, invalidations, walks that
// evict, and the odd Flush and Release.
func memoOps(rng *rand.Rand, g memoGeometry, count int) []byte {
	long := func() byte { return g.long[0] + byte(rng.Intn(int(g.long[1]-g.long[0])+1)) }
	var fixed [3][2]byte
	for i := range fixed {
		fixed[i] = [2]byte{byte(2 * rng.Intn(128)), long()}
	}
	ops := make([]byte, 0, 3*count)
	for range count {
		window := byte(rng.Intn(2)) << 7
		op := [3]byte{byte(2 * rng.Intn(128)), 0, 0}
		switch x := rng.Intn(40); {
		case x < 14: // a fixed range, walked or installed
			f := fixed[rng.Intn(len(fixed))]
			op = [3]byte{f[0], f[1], []byte{0, 3}[rng.Intn(2)]}
		case x < 20: // a repeat of a recent range
			op = [3]byte{byte(rng.Intn(8)), byte(rng.Intn(2)), 8}
		case x < 24: // a new long range
			op[1], op[2] = long(), 0
		case x < 28: // a short walk
			op[1], op[2] = byte(rng.Intn(8)), 2
		case x < 32:
			op[1], op[2] = byte(rng.Intn(64)), 7
		case x < 35: // an invalidation, at most a few lines
			op[1], op[2] = byte(rng.Intn(3)), 4
		case x < 38: // a walk that may wrap and evict
			op[1], op[2] = byte(rng.Intn(256)), 0
		case x < 39:
			op[2] = 5
		default:
			op[2] = 6
		}
		op[2] |= window
		ops = append(ops, op[:]...)
	}
	return ops
}

// TestCacheMemoDifferential runs diffCache over 300 streams from
// memoOps, cycling through memoGeometries: a few fixed ranges of 32 to
// 64 lines walked again and again, so the walk memo answers most of
// their walks and settles them before the short walks, AccessEach
// batches, invalidations and evicting walks between them.
func TestCacheMemoDifferential(t *testing.T) {
	for seed := range 300 {
		g := memoGeometries[seed%len(memoGeometries)]
		ops := memoOps(rand.New(rand.NewSource(int64(seed))), g, 200)
		t.Run(strconv.Itoa(seed), func(t *testing.T) { diffCache(t, 2, uint8(g.ways-1), g.setSel, ops) })
	}
}
