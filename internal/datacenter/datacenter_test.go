package datacenter

import (
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/rng"
	"ioatsim/internal/sim"
)

// fastOptions returns a small configuration that still exercises the
// whole pipeline.
func fastOptions(feat ioat.Features) Options {
	return Options{
		P:                cost.Default(),
		Feat:             feat,
		Seed:             1,
		ClientNodes:      4,
		ThreadsPerClient: 2,
		FileCount:        1,
		FileSize:         4 * cost.KB,
		Warm:             10 * time.Millisecond,
		Meas:             30 * time.Millisecond,
	}
}

func TestTwoTierServesRequests(t *testing.T) {
	m := RunTwoTier(fastOptions(ioat.None()))
	if m.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if m.TPS <= 0 {
		t.Fatalf("TPS = %v", m.TPS)
	}
	if m.ProxyCPU <= 0 || m.WebCPU <= 0 {
		t.Fatalf("idle tiers: proxy=%v web=%v", m.ProxyCPU, m.WebCPU)
	}
}

func TestTwoTierIOATImprovesTPS(t *testing.T) {
	o := fastOptions(ioat.None())
	o.ClientNodes = 16
	o.ThreadsPerClient = 4
	o.FileSize = 8 * cost.KB
	plain := RunTwoTier(o)
	o.Feat = ioat.Linux()
	accel := RunTwoTier(o)
	if accel.TPS < plain.TPS {
		t.Fatalf("I/OAT TPS %v below non-I/OAT %v", accel.TPS, plain.TPS)
	}
}

func TestTwoTierZipf(t *testing.T) {
	o := fastOptions(ioat.Linux())
	o.FileCount = 100
	o.Alpha = 0.9
	m := RunTwoTier(o)
	if m.Completed == 0 {
		t.Fatal("zipf run served nothing")
	}
}

func TestTwoTierDeterministic(t *testing.T) {
	a := RunTwoTier(fastOptions(ioat.Linux()))
	b := RunTwoTier(fastOptions(ioat.Linux()))
	if a.Completed != b.Completed || a.TPS != b.TPS {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestProxyCacheServesHits(t *testing.T) {
	o := fastOptions(ioat.Linux())
	o.CacheBytes = cost.MB
	withCache := RunTwoTier(o)
	o.CacheBytes = 0
	without := RunTwoTier(o)
	if withCache.Completed == 0 {
		t.Fatal("cached run served nothing")
	}
	// With a single hot file, the cache removes the backend hop, so the
	// web tier should be nearly idle and TPS at least as high.
	if withCache.WebCPU >= without.WebCPU {
		t.Fatalf("cache did not offload web tier: %v vs %v",
			withCache.WebCPU, without.WebCPU)
	}
}

func TestEmulatedScalesWithThreads(t *testing.T) {
	o := fastOptions(ioat.Linux())
	o.FileSize = 16 * cost.KB
	one := RunEmulated(o, 1)
	eight := RunEmulated(o, 8)
	if eight.TPS <= one.TPS*2 {
		t.Fatalf("8 threads (%v TPS) not scaling over 1 thread (%v TPS)", eight.TPS, one.TPS)
	}
	if eight.ClientCPU <= one.ClientCPU {
		t.Fatal("client CPU did not grow with threads")
	}
}

func TestEmulatedIOATSustainsMoreLoad(t *testing.T) {
	// At saturation, I/OAT should deliver more TPS (the Fig. 9 claim).
	o := fastOptions(ioat.None())
	o.FileSize = 16 * cost.KB
	plain := RunEmulated(o, 48)
	o.Feat = ioat.Linux()
	accel := RunEmulated(o, 48)
	if accel.TPS <= plain.TPS {
		t.Fatalf("I/OAT TPS %v not above non-I/OAT %v at saturation", accel.TPS, plain.TPS)
	}
}

func TestContentCacheLRU(t *testing.T) {
	cl := host.NewCluster(cost.Default(), 1)
	n := cl.Add("n", ioat.None(), 1)
	c := newContentCache(n, 10*cost.KB)
	if _, ok := c.Put("a", 4*cost.KB); !ok {
		t.Fatal("put a failed")
	}
	if _, ok := c.Put("b", 4*cost.KB); !ok {
		t.Fatal("put b failed")
	}
	c.Get("a") // refresh a; b becomes LRU
	if _, ok := c.Put("c", 4*cost.KB); !ok {
		t.Fatal("put c failed")
	}
	if _, hit := c.Get("b"); hit {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, hit := c.Get("a"); !hit {
		t.Fatal("refreshed entry a was evicted")
	}
	if c.used > 10*cost.KB {
		t.Fatalf("cache over capacity: %d", c.used)
	}
}

func TestContentCacheRejectsOversize(t *testing.T) {
	cl := host.NewCluster(cost.Default(), 1)
	n := cl.Add("n", ioat.None(), 1)
	c := newContentCache(n, 4*cost.KB)
	if _, ok := c.Put("big", 8*cost.KB); ok {
		t.Fatal("cached a document larger than the cache")
	}
	disabled := newContentCache(n, 0)
	if _, ok := disabled.Put("x", 1); ok {
		t.Fatal("disabled cache accepted an entry")
	}
}

func TestThreeTierServesRequests(t *testing.T) {
	o := ThreeTierOptions{Options: fastOptions(ioat.Linux())}
	o.QueriesPerRequest = 2
	m := RunThreeTier(o)
	if m.Completed == 0 {
		t.Fatal("no dynamic requests completed")
	}
	if m.AppCPU <= 0 || m.DBCPU <= 0 {
		t.Fatalf("idle inner tiers: app=%v db=%v", m.AppCPU, m.DBCPU)
	}
}

func TestThreeTierQueriesCostThroughput(t *testing.T) {
	run := func(q int) ThreeTierMetrics {
		o := ThreeTierOptions{Options: fastOptions(ioat.Linux())}
		o.ClientNodes = 8
		o.ThreadsPerClient = 4
		o.Warm = 40 * time.Millisecond
		o.QueriesPerRequest = q
		return RunThreeTier(o)
	}
	light := run(1)
	heavy := run(6)
	if heavy.TPS >= light.TPS {
		t.Fatalf("more DB queries should cost TPS: %v vs %v", heavy.TPS, light.TPS)
	}
	if heavy.DBCPU <= light.DBCPU {
		t.Fatalf("DB CPU should grow with queries: %v vs %v", heavy.DBCPU, light.DBCPU)
	}
}

func TestThreeTierDeterministic(t *testing.T) {
	o := ThreeTierOptions{Options: fastOptions(ioat.Linux())}
	o.Warm = 40 * time.Millisecond
	a := RunThreeTier(o)
	b := RunThreeTier(o)
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// appWorkPerLine is appWork as one RandomCost call per working-set line:
// the reference the batched appWork must match draw for draw.
func appWorkPerLine(t *Tier, fixed time.Duration) time.Duration {
	lines := t.appState.Size / t.Node.P.CacheLine
	var d time.Duration
	for i := 0; i < AppStateLines; i++ {
		line := t.rand.Intn(lines)
		d += t.Node.Mem.RandomCost(t.appState.Addr+mem.Addr(line*t.Node.P.CacheLine), 1)
	}
	return fixed + d
}

// TestAppWorkMatchesPerLineTouches runs requests through appWork on one
// tier and through the per-line reference on a twin with the same seed,
// with receive-path cache placements and DMA writes between requests so
// that the working set is partly evicted. Each request must cost the
// same, leave the generators at the same next draw and leave the same
// working-set lines resident.
func TestAppWorkMatchesPerLineTouches(t *testing.T) {
	newTwin := func() (*Tier, mem.Buffer) {
		cl := host.NewCluster(cost.Default(), 1)
		t.Cleanup(cl.Close)
		n := cl.Add("n", ioat.None(), 1)
		return newTier(n, rng.New(11)), n.Buf(4 * cost.MB)
	}
	batched, rxA := newTwin()
	perLine, rxB := newTwin()
	var evictions time.Duration
	for req := 0; req < 12; req++ {
		if got, want := batched.appWork(ProxyFixedWork), appWorkPerLine(perLine, ProxyFixedWork); got != want {
			t.Fatalf("request %d: appWork = %v, per-line reference = %v", req, got, want)
		}
		if got, want := batched.rand.Uint64(), perLine.rand.Uint64(); got != want {
			t.Fatalf("request %d: next draw %#x, per-line reference %#x", req, got, want)
		}
		ws, line := batched.appState, batched.Node.P.CacheLine
		for a := ws.Addr; a < ws.Addr+mem.Addr(ws.Size); a += mem.Addr(line) {
			if got, want := batched.Node.Mem.Cache.Contains(a), perLine.Node.Mem.Cache.Contains(a); got != want {
				t.Fatalf("request %d: line %#x resident %v, per-line reference %v", req, a, got, want)
			}
		}
		off := mem.Addr(req * 320 * cost.KB)
		for _, tw := range []struct {
			m  *mem.Model
			rx mem.Buffer
		}{{batched.Node.Mem, rxA}, {perLine.Node.Mem, rxB}} {
			evictions += tw.m.InstallPacket(tw.rx.Addr+off, 256*cost.KB)
			tw.m.DMAWrite(tw.rx.Addr+off+256*cost.KB, 64*cost.KB)
		}
	}
	if evictions == 0 {
		t.Fatal("the placements evicted nothing")
	}
}

// TestAppWorkAllocatesNothing pins that appWork's chunk of addresses
// stays on the stack.
func TestAppWorkAllocatesNothing(t *testing.T) {
	cl := host.NewCluster(cost.Default(), 1)
	defer cl.Close()
	tier := newTier(cl.Add("n", ioat.None(), 1), rng.New(1))
	if allocs := testing.AllocsPerRun(20, func() { tier.appWork(WebFixedWork) }); allocs != 0 {
		t.Fatalf("appWork allocates %v times per request", allocs)
	}
}

// TestDataCenterEventCounts pins how many events each kind of run
// dispatches: the two-tier proxy with and without its content cache
// and under a Zipf trace, the emulated clients, and the three-tier
// proxy. The goldens pin tables, and no golden runs the cached
// two-tier path. The package's tests run one at a time, so the
// process-wide counter's delta is the run's own.
func TestDataCenterEventCounts(t *testing.T) {
	cached := fastOptions(ioat.Linux())
	cached.CacheBytes = cost.MB
	zipf := fastOptions(ioat.Linux())
	zipf.FileCount = 100
	zipf.Alpha = 0.9
	emu := fastOptions(ioat.Linux())
	emu.FileSize = 16 * cost.KB
	three := ThreeTierOptions{Options: fastOptions(ioat.Linux()), QueriesPerRequest: 2}
	for _, c := range []struct {
		name string
		run  func()
		want uint64
	}{
		{"two-tier", func() { RunTwoTier(fastOptions(ioat.None())) }, 52593},
		{"two-tier cached", func() { RunTwoTier(cached) }, 47265},
		{"two-tier zipf", func() { RunTwoTier(zipf) }, 65609},
		{"emulated", func() { RunEmulated(emu, 8) }, 33133},
		{"three-tier", func() { RunThreeTier(three) }, 40000},
	} {
		e0 := sim.GlobalExecuted()
		c.run()
		if got := sim.GlobalExecuted() - e0; got != c.want {
			t.Errorf("%s: %d events, want %d", c.name, got, c.want)
		}
	}
}
