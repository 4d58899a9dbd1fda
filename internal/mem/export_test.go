package mem

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Size returns the total capacity in bytes.
func (c *Cache) Size() int { return c.nsets * c.ways * c.lineSize }

// Flush empties the cache.
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.meta)
	c.forget()
}
