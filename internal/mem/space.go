// Package mem models a node's memory hierarchy: a synthetic physical
// address space, a set-associative write-allocate LRU cache, and a cost
// model that prices copies and header accesses line by line. The cache is
// what makes copy-in-cache vs copy-out-of-cache vs DMA-copy — and the
// split-header locality effect — emergent rather than scripted.
package mem

// Addr is a synthetic physical address.
type Addr uint64

// Buffer is a contiguous allocation in a node's address space.
type Buffer struct {
	Addr Addr
	Size int
}

// Space is a bump allocator handing out non-overlapping buffers. Address
// zero is never allocated so that the zero Buffer is recognizably invalid.
type Space struct {
	next Addr
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return &Space{next: 4096} }

// Alloc returns a fresh buffer of the given size, aligned to align bytes
// (align must be a power of two; 0 means cache-line alignment).
func (s *Space) Alloc(size, align int) Buffer {
	if size < 0 {
		panic("mem: negative allocation")
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		panic("mem: alignment not a power of two")
	}
	a := Addr(align)
	s.next = (s.next + a - 1) &^ (a - 1)
	b := Buffer{Addr: s.next, Size: size}
	s.next += Addr(size)
	return b
}

// Pool is a LIFO free list of fixed-size buffers, modelling a slab
// allocator: the most recently freed buffer is reused first, so a
// fast-draining consumer keeps a small, cache-hot working set while a
// backlog forces the pool to grow and thrash the cache. This is the
// mechanism behind the split-header feature's large-message benefit.
type Pool struct {
	space   *Space
	size    int
	free    []Buffer
	Live    int // buffers currently handed out
	MaxLive int // high-water mark
	Total   int // buffers ever created
}

// NewPool returns a pool of size-byte buffers drawing on space.
func NewPool(space *Space, size int) *Pool {
	return &Pool{space: space, size: size}
}

// BufSize returns the size of each pooled buffer.
func (p *Pool) BufSize() int { return p.size }

// Get returns a buffer, reusing the most recently freed one if possible.
func (p *Pool) Get() Buffer {
	p.Live++
	if p.Live > p.MaxLive {
		p.MaxLive = p.Live
	}
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	p.Total++
	return p.space.Alloc(p.size, 64)
}

// Put returns a buffer to the free list.
func (p *Pool) Put(b Buffer) {
	if b.Size != p.size {
		panic("mem: buffer returned to wrong pool")
	}
	p.Live--
	if p.Live < 0 {
		panic("mem: pool double free")
	}
	p.free = append(p.free, b)
}
