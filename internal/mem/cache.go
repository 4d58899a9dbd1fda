package mem

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"ioatsim/internal/cost"
)

// Cache is a set-associative LRU cache with write-allocate semantics,
// indexed by synthetic physical address. It tracks only presence, not
// data; the cost model turns hit/miss outcomes into time.
//
// Each set owns eight tag words (line address + 1; 0 = invalid; words
// beyond the associativity stay 0), one host cache line in tags, and two
// metadata words in meta:
//
//   - a fingerprint word, one byte per way: 0x80 | the 7 line bits above
//     the set index, 0 on an invalid way. A lookup broadcasts the wanted
//     fingerprint over the word, finds candidate ways with one SWAR
//     zero-byte test, and confirms each against its tag word.
//   - an 8x8 LRU bit matrix, row w in byte w. Touching way w sets row w
//     (over the cache's ways) and clears column w, so bit j of row i is
//     set iff way i was referenced after way j, and among valid ways the
//     least recently used one is the one whose row is zero.
//
// A miss fills the lowest invalid way, else the way whose row is zero:
// the line a per-way LRU stamp form evicts (the lowest-indexed way with
// the smallest stamp, invalid ways holding stamp 0), so hit/miss
// sequences and evictions are bit-identical to it. Both words are stored
// XOR their empty-set value, which differs from zero only in the bytes
// of ways beyond the associativity: a fingerprint that never matches nor
// reads invalid, a row that never reads zero. So zeroed memory already
// is an empty cache: a new state needs no initialization, a recycled
// one (see Release) only a clear, and one loop body serves every 1-8-way
// geometry.
type Cache struct {
	lineSize int
	ways     int
	nsets    int
	shift    uint // log2(lineSize)
	setBits  uint // log2(nsets)
	mask     uint64

	rowMask  uint64 // a touched way's row: one bit per way of the cache
	fpEmpty  uint64 // fingerprint word of an empty set
	lruEmpty uint64 // LRU matrix of an empty set

	cacheState

	Hits   uint64
	Misses uint64
}

// cacheState is the per-set state of a cache, 80 B a set: 320 KiB at
// the default 2 MB / 64 B / 8-way geometry.
type cacheState struct {
	tags [][8]uint64 // per set
	meta [][2]uint64 // per set: fingerprints, then the LRU matrix
}

// released holds the states of released caches for NewCache to reuse.
// Every sweep point builds a cluster, and a fresh state for each of its
// nodes was most of the bytes a run allocated. The list is package-level
// because NewCache and NewModel keep their signatures (the benchmark's
// layer ladder calls them), so no owner can hand one through. It is a
// mutex-guarded list, not a sync.Pool: what a Pool hands back depends on
// which P runs the goroutine and on GC timing, so the bytes a run
// allocates would vary from run to run. Measured on a Pool, stream's
// alloc_mb spread 1.3% over three runs (0.03% without reuse) and
// datacenter read 42.9 MB in one run and 48.2 MB in another. With this
// list, runs differ by what they differed by without reuse: under
// 0.1 MB. It needs no cap: NewCache takes one state off it, reused or
// dropped, whenever it is not empty, so it never holds more states than
// caches were live at once.
var released struct {
	sync.Mutex
	states []cacheState
}

// takeState returns an all-zero state of nsets sets: the newest released
// one of that size, cleared, or a new one. Finding none of that size, it
// drops the oldest released state.
func takeState(nsets int) cacheState {
	var st cacheState
	released.Lock()
	if n := len(released.states); n > 0 {
		i := 0
		for j := n - 1; j >= 0; j-- {
			if len(released.states[j].tags) == nsets {
				i, st = j, released.states[j]
				break
			}
		}
		released.states = slices.Delete(released.states, i, i+1)
	}
	released.Unlock()
	if st.tags == nil {
		return cacheState{tags: make([][8]uint64, nsets), meta: make([][2]uint64, nsets)}
	}
	clear(st.tags)
	clear(st.meta)
	return st
}

// Release returns the cache's state for a later NewCache to reuse, and
// leaves the cache without one, so that any later access panics instead
// of reading or writing a state another cache may own. Hits and Misses
// stay readable. Releasing twice does nothing.
func (c *Cache) Release() {
	if c.tags == nil {
		return
	}
	released.Lock()
	released.states = append(released.states, c.cacheState)
	released.Unlock()
	c.cacheState = cacheState{}
}

// SWAR constants: the low and the high bit of every byte of a word.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// zeroBytes flags the zero bytes of x in bit 7 of each byte. The lowest
// flag is always exact; a 0x01 byte above a zero byte may be flagged
// too, so callers take the lowest flag or confirm each one.
func zeroBytes(x uint64) uint64 { return (x - lsbs) &^ x & msbs }

// wayByte[w] selects way w's byte of a fingerprint or LRU word. The
// walks mask with it because the compiler guards a shift by a variable
// 8*w with a range check.
var wayByte = [8]uint64{0xff, 0xff << 8, 0xff << 16, 0xff << 24, 0xff << 32, 0xff << 40, 0xff << 48, 0xff << 56}

// NewCache returns a cache of the given total size, line size and
// associativity (at most cost.MaxCacheWays). Size must be a multiple of
// lineSize*ways and the derived set count must be a power of two.
func NewCache(size, lineSize, ways int) *Cache {
	if size <= 0 || lineSize <= 0 || ways <= 0 || ways > cost.MaxCacheWays {
		panic("mem: bad cache geometry")
	}
	nsets := size / (lineSize * ways)
	if nsets == 0 || nsets&(nsets-1) != 0 {
		panic("mem: cache set count must be a power of two")
	}
	if lineSize&(lineSize-1) != 0 {
		panic("mem: line size must be a power of two")
	}
	c := &Cache{
		lineSize:   lineSize,
		ways:       ways,
		nsets:      nsets,
		shift:      uint(bits.TrailingZeros(uint(lineSize))),
		setBits:    uint(bits.TrailingZeros(uint(nsets))),
		mask:       uint64(nsets - 1),
		rowMask:    1<<ways - 1,
		cacheState: takeState(nsets),
	}
	// A missing way's fingerprint byte lacks bit 7, so it never matches,
	// and is nonzero; its row holds its diagonal bit, which no touch
	// writes, so it is never zero.
	for w := ways; w < 8; w++ {
		c.fpEmpty |= 0x7f << (8 * w)
		c.lruEmpty |= 1 << (9 * w)
	}
	return c
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Size returns the total capacity in bytes.
func (c *Cache) Size() int { return c.nsets * c.ways * c.lineSize }

// set returns the tag words and the metadata words of the set line
// indexes.
func (c *Cache) set(line uint64) (*[8]uint64, *[2]uint64) {
	s := line & c.mask
	return &c.tags[s], &c.meta[s]
}

// fingerprint returns line's fingerprint byte: 0x80 | the 7 line bits
// above the set index. The shift is masked to 0-63 so the compiler
// drops its range check.
func (c *Cache) fingerprint(line uint64) uint64 { return 0x80 | line>>(c.setBits&63)&0x7f }

// find returns the way holding a line in the set whose tag words and
// fingerprint word are given: the line's tag word is tag, and want is
// its fingerprint in every byte. Each fingerprint match is confirmed
// against its tag word, as lines a multiple of 128 sets' worth of lines
// apart share a fingerprint. Way numbers are masked to 0-7 so the
// compiler drops the tag array's bounds checks.
func find(set *[8]uint64, fps, want, tag uint64) (way uint, ok bool) {
	for m := zeroBytes(fps ^ want); m != 0; m &= m - 1 {
		if w := uint(bits.TrailingZeros64(m)) >> 3 & 7; set[w] == tag {
			return w, true
		}
	}
	return 0, false
}

// fill puts the line whose tag word is tag and whose fingerprint,
// broadcast to every byte, is want into a set that misses it: into the
// lowest invalid way, else into the way whose LRU row is zero, which
// counts as an eviction. It returns the way. Both walk bodies inline it:
// keep it within the inliner's budget (it costs 80 of 80 with Go 1.24).
func (c *Cache) fill(set *[8]uint64, md *[2]uint64, want, tag uint64) (w uint, evicted int) {
	v := zeroBytes(md[0] ^ c.fpEmpty) // invalid ways
	if v == 0 {
		v, evicted = zeroBytes(md[1]^c.lruEmpty), 1 // the zero row
	}
	w = uint(bits.TrailingZeros64(v)) >> 3 & 7
	set[w] = tag
	md[0] ^= (md[0] ^ want) & wayByte[w]
	return w, evicted
}

// touch makes way w the most recently used of the set whose metadata is
// md: it sets row w over the cache's ways (rows holds them in every
// byte) and clears column w.
func touch(md *[2]uint64, rows uint64, w uint) {
	md[1] = (md[1] | rows&wayByte[w&7]) &^ (lsbs << (w & 7))
}

// Access touches the line containing addr, allocating it on miss, and
// reports whether it was a hit.
//
//ioat:hotpath
func (c *Cache) Access(addr Addr) bool {
	hits, _ := c.accessLines(uint64(addr)>>c.shift, 1)
	return hits == 1
}

// Contains reports whether the line holding addr is resident, without
// updating LRU state or statistics.
func (c *Cache) Contains(addr Addr) bool {
	line := uint64(addr) >> c.shift
	set, md := c.set(line)
	_, ok := find(set, md[0], c.fingerprint(line)*lsbs, line+1)
	return ok
}

// run returns the sets of a run: the lines first, first+1, ..., at most
// n of them, up to the last set before the set index wraps. Line first+i
// indexes tags[i] and meta[i] and has tag word first+i+1, and all of
// them share first's fingerprint, returned in every byte of want. The
// two slices have equal length, so a loop over one indexes both without
// a bounds check.
func (c *Cache) run(first uint64, n int) (tags [][8]uint64, meta [][2]uint64, want uint64) {
	s := int(first & c.mask)
	e := s + min(n, c.nsets-s)
	tags = c.tags[s:e]
	return tags, c.meta[s:e][:len(tags)], c.fingerprint(first) * lsbs
}

// walk touches n consecutive cache lines starting at line number first,
// allocating on miss, and returns how many hit and how many misses
// displaced a valid line. The referenced way becomes the most recently
// used. It is the shared core of every referencing operation, and
// leaves the statistics to its callers.
//
// Consecutive lines fall in consecutive sets, so a walk goes one run of
// sets at a time (see run): the set slices, the fingerprint and the
// first tag word are computed once per run, and the next set's tag word
// is one more. find, fill and touch inline into the loop body.
//
// A single line takes a body of its own: through the run's set-up it
// measured a fifth or more slower (BenchmarkAccessLines), and
// single-line walks are most of what the data-center figures price.
func (c *Cache) walk(first uint64, n int) (hits, evicted int) {
	rows := c.rowMask * lsbs // a touched way's row, in every byte
	if n == 1 {
		set, md := c.set(first)
		want := c.fingerprint(first) * lsbs
		w, hit := find(set, md[0], want, first+1)
		if hit {
			hits = 1
		} else {
			w, evicted = c.fill(set, md, want, first+1)
		}
		touch(md, rows, w)
		return hits, evicted
	}
	for n > 0 {
		tags, meta, want := c.run(first, n)
		tag := first + 1
		for i := range tags {
			set, md := &tags[i], &meta[i]
			w, hit := find(set, md[0], want, tag)
			if hit {
				hits++
			} else {
				var e int
				w, e = c.fill(set, md, want, tag)
				evicted += e
			}
			touch(md, rows, w)
			tag++
		}
		first += uint64(len(tags))
		n -= len(tags)
	}
	return hits, evicted
}

// span returns the first line number and the line count of [addr,
// addr+n) (n > 0).
func (c *Cache) span(addr Addr, n int) (first uint64, lines int) {
	first = uint64(addr) >> c.shift
	last := (uint64(addr) + uint64(n) - 1) >> c.shift
	return first, int(last - first + 1)
}

// accessLines touches n consecutive lines from first and counts them.
func (c *Cache) accessLines(first uint64, n int) (hits, misses int) {
	hits, _ = c.walk(first, n)
	misses = n - hits
	c.Hits += uint64(hits)
	c.Misses += uint64(misses)
	return hits, misses
}

// AccessRange touches every line of [addr, addr+n) and returns the hit
// and miss counts. It is the bulk path under every modeled copy and
// checksum.
//
//ioat:hotpath
func (c *Cache) AccessRange(addr Addr, n int) (hits, misses int) {
	if n <= 0 {
		return 0, 0
	}
	return c.accessLines(c.span(addr, n))
}

// AccessLines touches nLines consecutive lines starting with the one
// holding addr — the dependent-access pattern of protocol-header and
// connection-state reads, priced per line by Model.RandomCost.
//
//ioat:hotpath
func (c *Cache) AccessLines(addr Addr, nLines int) (hits, misses int) {
	if nLines <= 0 {
		return 0, 0
	}
	return c.accessLines(uint64(addr)>>c.shift, nLines)
}

// Install brings every line of [addr, addr+n) into the cache without
// counting hits or misses — the model for direct cache placement (DCA).
// It returns how many valid lines belonging to other addresses were
// evicted to make room: the pollution a full-packet placement inflicts
// on the rest of the system.
//
//ioat:hotpath
func (c *Cache) Install(addr Addr, n int) (evicted int) {
	if n <= 0 {
		return 0
	}
	_, evicted = c.walk(c.span(addr, n))
	return evicted
}

// Invalidate drops every line of [addr, addr+n) — the coherence action a
// DMA write forces on the CPU cache (paper §2.2.2). LRU state is
// untouched, as invalidation is not a reference: an invalid way is
// refilled before any valid one is evicted.
//
//ioat:hotpath
func (c *Cache) Invalidate(addr Addr, n int) {
	if n <= 0 {
		return
	}
	first, lines := c.span(addr, n)
	for lines > 0 {
		tags, meta, want := c.run(first, lines)
		tag := first + 1
		for i := range tags {
			// find's loop, written out: through find's two results a set
			// with no candidate, the common case, cost half as much again.
			for m := zeroBytes(meta[i][0] ^ want); m != 0; m &= m - 1 {
				if w := uint(bits.TrailingZeros64(m)) >> 3 & 7; tags[i][w] == tag {
					tags[i][w] = 0
					meta[i][0] &^= wayByte[w]
					break
				}
			}
			tag++
		}
		first += uint64(len(tags))
		lines -= len(tags)
	}
}

// Flush empties the cache.
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.meta)
}

// OccupiedLines returns how many valid lines the cache currently holds.
func (c *Cache) OccupiedLines() int {
	count := 0
	for i := range c.tags {
		for _, t := range c.tags[i] {
			if t != 0 {
				count++
			}
		}
	}
	return count
}

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return c.nsets * c.ways }

// Audit walks the whole structure and verifies its invariants: total
// occupancy within capacity, every valid tag indexed into the set that
// holds it, no duplicate tags within a set, fingerprint bytes that agree
// with the tags (0 exactly on invalid ways), and an LRU matrix that is a
// strict total order over each set's valid ways with no bits outside its
// ways or on its diagonal. It returns the first violation found, or nil.
// The walk is O(lines), so the invariant checker runs it periodically
// and at the end of a run, not per access.
func (c *Cache) Audit() error {
	if occ := c.OccupiedLines(); occ > c.Lines() {
		return fmt.Errorf("mem: cache occupancy %d exceeds capacity %d lines", occ, c.Lines())
	}
	const diagonal = 0x8040201008040201
	// The bits a touch can set: rows and columns of the cache's ways.
	matrix := c.rowMask * (lsbs &^ c.fpEmpty) &^ diagonal
	for s := 0; s < c.nsets; s++ {
		tags, md := c.set(uint64(s))
		fps := md[0] ^ c.fpEmpty
		valid := uint64(0) // bit w set when way w holds a line
		for w := uint(0); w < 8; w++ {
			want := c.fpEmpty >> (8 * w) & 0xff
			if int(w) < c.ways && tags[w] != 0 {
				line := tags[w] - 1
				if got := int(line & c.mask); got != s {
					return fmt.Errorf("mem: set %d way %d holds tag %#x which indexes set %d",
						s, w, tags[w], got)
				}
				for j := int(w) + 1; j < c.ways; j++ {
					if tags[j] == tags[w] {
						return fmt.Errorf("mem: set %d holds duplicate tag %#x (ways %d and %d)",
							s, tags[w], w, j)
					}
				}
				want = c.fingerprint(line)
				valid |= 1 << w
			}
			if got := fps >> (8 * w) & 0xff; got != want {
				return fmt.Errorf("mem: set %d way %d fingerprint %#x, want %#x", s, w, got, want)
			}
		}
		if stray := md[1] &^ matrix; stray != 0 {
			return fmt.Errorf("mem: set %d LRU matrix %#x has bits %#x outside its ways or on its diagonal",
				s, md[1], stray)
		}
		lru := md[1] ^ c.lruEmpty
		ranks := uint64(0) // bit r set when some valid way is newer than exactly r others
		for i := uint(0); i < 8; i++ {
			if valid>>i&1 == 0 {
				continue
			}
			row := lru >> (8 * i) & valid
			for j := i + 1; j < 8; j++ {
				if valid>>j&1 != 0 && row>>j&1 == lru>>(8*j+i)&1 {
					return fmt.Errorf("mem: set %d LRU matrix orders ways %d and %d both or neither way",
						s, i, j)
				}
			}
			ranks |= 1 << bits.OnesCount64(row)
		}
		if ranks != 1<<bits.OnesCount64(valid)-1 {
			return fmt.Errorf("mem: set %d LRU matrix %#x is not a total order over valid ways %08b",
				s, md[1], valid)
		}
	}
	return nil
}

// Resident returns how many lines of [addr, addr+n) are currently cached.
func (c *Cache) Resident(addr Addr, n int) int {
	if n <= 0 {
		return 0
	}
	count := 0
	first, lines := c.span(addr, n)
	for l := first; l < first+uint64(lines); l++ {
		if c.Contains(Addr(l << c.shift)) {
			count++
		}
	}
	return count
}
