package datacenter

import (
	"ioatsim/internal/host"
	"ioatsim/internal/mem"
)

// contentCache is the proxy's LRU document cache: hit documents are
// served from proxy memory without touching the web tier.
type contentCache struct {
	node     *host.Node
	capacity int
	used     int
	entries  map[string]*cacheEntry
	// LRU list, most recent at the tail.
	head, tail *cacheEntry
}

type cacheEntry struct {
	path       string
	buf        mem.Buffer
	prev, next *cacheEntry
}

// newContentCache returns a cache of the given byte capacity; capacity
// <= 0 disables caching (every Get misses).
func newContentCache(n *host.Node, capacity int) *contentCache {
	return &contentCache{node: n, capacity: capacity, entries: make(map[string]*cacheEntry)}
}

// Get returns the cached copy of path, refreshing its recency.
func (c *contentCache) Get(path string) (mem.Buffer, bool) {
	e, ok := c.entries[path]
	if !ok {
		return mem.Buffer{}, false
	}
	c.unlink(e)
	c.append(e)
	return e.buf, true
}

// Put inserts a document of the given size, evicting LRU entries to fit.
// Documents larger than the whole cache are not stored.
func (c *contentCache) Put(path string, size int) (mem.Buffer, bool) {
	if c.capacity <= 0 || size > c.capacity {
		return mem.Buffer{}, false
	}
	if e, ok := c.entries[path]; ok {
		c.unlink(e)
		c.append(e)
		return e.buf, true
	}
	for c.used+size > c.capacity {
		lru := c.head
		if lru == nil {
			break
		}
		c.unlink(lru)
		delete(c.entries, lru.path)
		c.used -= lru.buf.Size
	}
	e := &cacheEntry{path: path, buf: c.node.Mem.Space.Alloc(size, 0)}
	c.entries[path] = e
	c.append(e)
	c.used += size
	return e.buf, true
}

func (c *contentCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *contentCache) append(e *cacheEntry) {
	e.prev = c.tail
	if c.tail != nil {
		c.tail.next = e
	}
	c.tail = e
	if c.head == nil {
		c.head = e
	}
}
