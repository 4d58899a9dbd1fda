package mem

import "testing"

// benchCache builds the default Testbed-1 geometry: 2 MB, 64 B lines,
// 8-way (4096 sets).
func benchCache() *Cache { return NewCache(2<<20, 64, 8) }

// BenchmarkAccessRange covers the bulk-copy pricing path in its
// characteristic regimes: hit-heavy (working set resident), miss-heavy
// (streaming through a buffer far larger than the cache), wrap-around
// (a range whose line count exceeds the set count, so the set cursor
// wraps within one call), and one frame per call (the short walks of
// per-frame copies, where a call's set-up weighs most).
func BenchmarkAccessRange(b *testing.B) {
	const chunk = 64 << 10 // one socket-buffer chunk
	b.Run("hit", func(b *testing.B) {
		c := benchCache()
		c.AccessRange(0, chunk) // warm: every later pass hits
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(0, chunk)
		}
		b.SetBytes(chunk)
	})
	b.Run("miss", func(b *testing.B) {
		c := benchCache()
		span := Addr(8 << 20) // 4x the cache: each pass evicts the last
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(Addr(i)%span*chunk, chunk)
		}
		b.SetBytes(chunk)
	})
	b.Run("wrap", func(b *testing.B) {
		c := benchCache()
		big := c.Size() + c.Size()/2 // 1.5x capacity: wraps the set cursor
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(0, big)
		}
		b.SetBytes(int64(big))
	})
	b.Run("frame", func(b *testing.B) {
		const frame, buf = 1500, 2048 // 24 lines from a 2 KB-aligned buffer
		c := benchCache()
		ring := c.Size() / 2 / buf // resident: every pass after the first hits
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(Addr(i%ring*buf), frame)
		}
		b.SetBytes(frame)
	})
}

// BenchmarkAccessLines covers the dependent single-line pattern of
// protocol-header, connection-state and application working-set reads
// (the datacenter figures' hot loop): uniformly random lines of a
// working set, each its own call. In "hit" the working set is the
// datacenter tier's 1.5 MB, 6 lines a set in the 8-way cache, so after
// the warm pass every access hits. In "mixed" it is 4/3 of the cache,
// 10-11 lines a set, so about 3 in 4 accesses hit and each miss evicts.
// Both report the measured hit ratio as hits/op.
func BenchmarkAccessLines(b *testing.B) {
	for _, bc := range []struct {
		name string
		ws   int // working-set bytes
	}{
		{"hit", 1536 << 10},
		{"mixed", 4 * (2 << 20) / 3}, // 4/3 of benchCache's 2 MB
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := benchCache()
			lines := bc.ws / c.LineSize()
			c.AccessRange(0, bc.ws)
			rnd := uint64(1)
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				line := int(rnd>>33) % lines
				h, _ := c.AccessLines(Addr(line*c.LineSize()), 1)
				hits += h
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}

// BenchmarkInstall covers full-packet direct cache placement (DCA): each
// 1500-byte frame lands in the next 2 KB buffer of a receive ring four
// times the cache's size, so, as in a long transfer, every placement
// misses and displaces valid lines.
func BenchmarkInstall(b *testing.B) {
	const frame, buf = 1500, 2048
	c := benchCache()
	ring := 4 * c.Size() / buf
	c.AccessRange(Addr(ring*buf), c.Size()) // fill with lines outside the ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Install(Addr(i%ring*buf), frame)
	}
	b.SetBytes(frame)
}

// BenchmarkInvalidate covers the DMA-write coherence path: per-frame
// payload invalidation (resident and absent lines) and a wrap-around
// range.
func BenchmarkInvalidate(b *testing.B) {
	const frame = 1500
	b.Run("resident", func(b *testing.B) {
		c := benchCache()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(0, frame) // re-install, then drop
			c.Invalidate(0, frame)
		}
		b.SetBytes(frame)
	})
	b.Run("absent", func(b *testing.B) {
		c := benchCache()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Invalidate(Addr(i%1024)*frame, frame)
		}
		b.SetBytes(frame)
	})
	b.Run("wrap", func(b *testing.B) {
		c := benchCache()
		big := c.Size() + c.Size()/2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Invalidate(0, big)
		}
		b.SetBytes(int64(big))
	})
}
