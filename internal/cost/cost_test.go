package cost

import (
	"testing"
	"time"
)

func TestDefaultsSane(t *testing.T) {
	p := Default()
	if p.Cores != 4 {
		t.Fatalf("cores = %d, want 4 (dual-core dual Xeon)", p.Cores)
	}
	if p.CacheSize != 2*MB {
		t.Fatalf("cache = %d, want 2MB (Testbed 1 L2)", p.CacheSize)
	}
	if p.MSS() != 1448 {
		t.Fatalf("MSS = %d, want 1448 for MTU 1500", p.MSS())
	}
}

func TestClone(t *testing.T) {
	p := Default()
	q := p.Clone()
	q.MTU = 9000
	if p.MTU != 1500 {
		t.Fatal("Clone aliases the original")
	}
}

func TestFrames(t *testing.T) {
	p := Default()
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {1448, 1}, {1449, 2}, {64 * KB, 46},
	}
	for _, c := range cases {
		if got := p.Frames(c.n); got != c.want {
			t.Fatalf("Frames(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFramesJumbo(t *testing.T) {
	p := Default()
	p.MTU = 2048
	if got := p.Frames(64 * KB); got != 33 {
		t.Fatalf("jumbo Frames(64K) = %d, want 33", got)
	}
	if p.Frames(64*KB) >= Default().Frames(64*KB) {
		t.Fatal("jumbo MTU should need fewer frames")
	}
}

func TestWireTime(t *testing.T) {
	p := Default()
	// One MSS payload: 1448 + 90 overhead = 1538 B = 12304 bits at 1 Gb/s.
	want := 12304 * time.Nanosecond
	if got := p.WireTime(1448); got != want {
		t.Fatalf("WireTime(1448) = %v, want %v", got, want)
	}
	// Wire time scales with payload.
	if p.WireTime(64*KB) <= p.WireTime(32*KB) {
		t.Fatal("wire time not monotonic")
	}
}

func TestWireRateNearLine(t *testing.T) {
	p := Default()
	// Effective goodput of a 1 Gb/s port with MTU 1500 should be ~941 Mb/s.
	n := 10 * MB
	d := p.WireTime(n)
	mbps := float64(n*8) / d.Seconds() / 1e6
	if mbps < 930 || mbps > 950 {
		t.Fatalf("goodput = %.1f Mb/s, want ~941", mbps)
	}
}

func TestPages(t *testing.T) {
	p := Default()
	if got := p.Pages(0); got != 0 {
		t.Fatalf("Pages(0) = %d", got)
	}
	if got := p.Pages(1); got != 1 {
		t.Fatalf("Pages(1) = %d", got)
	}
	if got := p.Pages(64 * KB); got != 16 {
		t.Fatalf("Pages(64K) = %d, want 16", got)
	}
}

func TestMemcpyCalibration(t *testing.T) {
	p := Default()
	// In-cache 64 KB copy: 1024 lines, 2 accesses each, ~8 GB/s.
	lines := 64 * KB / p.CacheLine
	inCache := time.Duration(2*lines) * p.StreamHit
	rate := float64(64*KB) / inCache.Seconds() / 1e9
	if rate < 6 || rate > 10 {
		t.Fatalf("in-cache copy rate = %.1f GB/s, want ~8", rate)
	}
	// Out-of-cache: ~1.5 GB/s.
	outCache := time.Duration(2*lines) * p.StreamMiss
	rate = float64(64*KB) / outCache.Seconds() / 1e9
	if rate < 1.2 || rate > 1.9 {
		t.Fatalf("out-of-cache copy rate = %.2f GB/s, want ~1.5", rate)
	}
}

func TestDMACrossoverCalibration(t *testing.T) {
	p := Default()
	// Paper Fig. 6: the DMA engine beats an out-of-cache CPU copy for
	// sizes above 8 KB.
	dmaTotal := func(n int) time.Duration {
		xfer := time.Duration(int64(n) * int64(time.Second) / p.DMABytesPerSec)
		return p.DMAStartup + time.Duration(p.Pages(n))*p.DMAPerPage + xfer
	}
	cpuNocache := func(n int) time.Duration {
		return time.Duration(2*n/p.CacheLine) * p.StreamMiss
	}
	if dmaTotal(4*KB) < cpuNocache(4*KB) {
		t.Fatalf("DMA should not beat CPU copy at 4K: %v vs %v",
			dmaTotal(4*KB), cpuNocache(4*KB))
	}
	if dmaTotal(16*KB) > cpuNocache(16*KB) {
		t.Fatalf("DMA should beat CPU copy at 16K: %v vs %v",
			dmaTotal(16*KB), cpuNocache(16*KB))
	}
}

func TestValidateAcceptsDefault(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	// The sweep-style variations experiments actually use must pass too.
	for _, mutate := range []func(*Params){
		func(p *Params) { p.MTU = 9000 },
		func(p *Params) { p.TSO = true },
		func(p *Params) { p.CoalesceFrames = 64 },
		func(p *Params) { p.SockBuf = 16 * KB },
		func(p *Params) { p.Cores = 1 },
		func(p *Params) { p.CacheWays = 1 },
	} {
		p := Default()
		mutate(p)
		if err := p.Validate(); err != nil {
			t.Fatalf("plausible sweep point rejected: %v", err)
		}
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero cores", func(p *Params) { p.Cores = 0 }},
		{"negative cores", func(p *Params) { p.Cores = -2 }},
		{"zero cache size", func(p *Params) { p.CacheSize = 0 }},
		{"zero cache line", func(p *Params) { p.CacheLine = 0 }},
		{"non-power-of-two line", func(p *Params) { p.CacheLine = 96 }},
		{"zero ways", func(p *Params) { p.CacheWays = 0 }},
		{"more ways than the cache models", func(p *Params) { p.CacheWays = 16 }},
		{"non-power-of-two sets", func(p *Params) { p.CacheSize = 3 * MB / 2 }},
		{"cache smaller than one set", func(p *Params) { p.CacheSize = 16 }},
		{"zero page size", func(p *Params) { p.PageSize = 0 }},
		{"mtu below headers", func(p *Params) { p.MTU = 52 }},
		{"zero rx buf", func(p *Params) { p.RxBufSize = 0 }},
		{"negative rx buf", func(p *Params) { p.RxBufSize = -1 }},
		{"zero coalesce", func(p *Params) { p.CoalesceFrames = 0 }},
		{"negative header bytes", func(p *Params) { p.HeaderBytes = -1 }},
		{"header ring below one slot", func(p *Params) { p.HeaderRingBytes = 1 }},
		{"zero sockbuf", func(p *Params) { p.SockBuf = 0 }},
		{"zero chunk max", func(p *Params) { p.ChunkMax = 0 }},
		{"zero port rate", func(p *Params) { p.PortRateBps = 0 }},
		{"zero dma rate", func(p *Params) { p.DMABytesPerSec = 0 }},
		{"negative syscall cost", func(p *Params) { p.Syscall = -time.Nanosecond }},
		{"negative prop delay", func(p *Params) { p.PropDelay = -time.Microsecond }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Default()
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatal("bad geometry accepted")
			}
		})
	}
}
