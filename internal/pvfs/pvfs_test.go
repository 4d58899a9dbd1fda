package pvfs

import (
	"testing"
	"testing/quick"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
)

func testbed(feat ioat.Features, iods int) (*host.Cluster, *host.Node, *System) {
	cl, compute, server := func() (*host.Cluster, *host.Node, *host.Node) {
		c := host.NewCluster(cost.Default(), 1)
		return c, c.Add("compute", feat, 6), c.Add("server", feat, 6)
	}()
	return cl, compute, New(server, iods, 0)
}

// withClient starts a task that connects a client to sys and runs fn on
// it.
func withClient(cl *host.Cluster, compute *host.Node, sys *System, fn func(c *Client)) {
	t := cl.S.NewTask("client")
	t.Start(func() { NewClient(t, compute, sys, fn) })
}

func TestCreateOpenRoundTrip(t *testing.T) {
	cl, compute, sys := testbed(ioat.Linux(), 4)
	var created, opened FileMeta
	var ok bool
	withClient(cl, compute, sys, func(c *Client) {
		c.Create("f", 8*cost.MB, func(m FileMeta) {
			created = m
			c.Open("f", func(m FileMeta, found bool) { opened, ok = m, found })
		})
	})
	cl.S.Run()
	if !ok {
		t.Fatal("open failed")
	}
	if created != opened {
		t.Fatalf("metadata mismatch: %+v vs %+v", created, opened)
	}
	if created.Servers != 4 || created.Stripe != DefaultStripe {
		t.Fatalf("bad meta %+v", created)
	}
}

func TestOpenMissingFile(t *testing.T) {
	cl, compute, sys := testbed(ioat.Linux(), 2)
	ok, answered := true, false
	withClient(cl, compute, sys, func(c *Client) {
		c.Open("missing", func(_ FileMeta, found bool) { ok, answered = found, true })
	})
	cl.S.Run()
	if !answered {
		t.Fatal("open never answered")
	}
	if ok {
		t.Fatal("opened a missing file")
	}
}

func TestStripingDistributesData(t *testing.T) {
	cl, compute, sys := testbed(ioat.Linux(), 6)
	withClient(cl, compute, sys, func(c *Client) {
		c.Create("big", 12*cost.MB, func(FileMeta) {})
	})
	cl.S.Run()
	for i, iod := range sys.IODs {
		f := iod.FS.MustOpen("big")
		if f.Size() != 2*cost.MB {
			t.Fatalf("iod %d holds %d bytes, want 2MB", i, f.Size())
		}
	}
}

// Property: spans exactly tile the requested range, stay inside each
// server's local file, and round-robin across servers.
func TestSpansProperty(t *testing.T) {
	cl, compute, sys := testbed(ioat.None(), 5)
	var client *Client
	withClient(cl, compute, sys, func(c *Client) { client = c })
	cl.S.Run()

	f := func(off32, n32 uint32) bool {
		m := FileMeta{Name: "x", Size: 64 * cost.MB, Stripe: DefaultStripe, Servers: 5}
		off := int(off32) % (m.Size - 1)
		n := int(n32)%(4*cost.MB) + 1
		if off+n > m.Size {
			n = m.Size - off
		}
		total := 0
		for _, sp := range client.spans(m, off, n) {
			if sp.server < 0 || sp.server >= m.Servers {
				return false
			}
			if sp.len <= 0 || sp.len > m.Stripe {
				return false
			}
			if sp.localOff < 0 || sp.localOff+sp.len > localBytes(m, sp.server)+m.Stripe {
				return false
			}
			total += sp.len
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalBytesSumsToFileSize(t *testing.T) {
	f := func(size32 uint32, servers8 uint8) bool {
		servers := int(servers8)%8 + 1
		size := int(size32) % (64 * cost.MB)
		if size < DefaultStripe { // avoid the pre-allocation floor
			size = DefaultStripe * servers
		}
		m := FileMeta{Size: size, Stripe: DefaultStripe, Servers: servers}
		sum := 0
		for i := 0; i < servers; i++ {
			sum += localBytes(m, i)
		}
		// Pre-allocation can pad empty servers by one stripe each.
		return sum >= size && sum <= size+servers*DefaultStripe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCompletes(t *testing.T) {
	cl, compute, sys := testbed(ioat.Linux(), 6)
	var done sim.Time
	withClient(cl, compute, sys, func(c *Client) {
		c.Create("f", 12*cost.MB, func(m FileMeta) {
			c.Read(m, 0, 12*cost.MB, compute.Buf(12*cost.MB), func() { done = cl.S.Now() })
		})
	})
	cl.S.Run()
	if done <= 0 {
		t.Fatal("read never finished")
	}
	// 12 MB over 6 parallel GbE streams: at least 2MB/port at ~117MB/s
	// is ~17ms; allow generous slack but catch serialization bugs.
	if done > sim.Time(80*time.Millisecond) {
		t.Fatalf("read took %v — streams not parallel?", done)
	}
	if done < sim.Time(15*time.Millisecond) {
		t.Fatalf("read took %v — faster than the wire allows", done)
	}
}

func TestWriteCompletes(t *testing.T) {
	cl, compute, sys := testbed(ioat.Linux(), 6)
	var done sim.Time
	withClient(cl, compute, sys, func(c *Client) {
		c.Create("f", 6*cost.MB, func(m FileMeta) {
			c.Write(m, 0, 6*cost.MB, compute.Buf(6*cost.MB), func() { done = cl.S.Now() })
		})
	})
	cl.S.Run()
	if done <= 0 {
		t.Fatal("write never finished")
	}
}

func TestRunReadBenchmark(t *testing.T) {
	o := Options{
		Feat: ioat.Linux(), Seed: 1, IODs: 4, Clients: 2,
		Warm: 10 * time.Millisecond, Meas: 30 * time.Millisecond,
	}
	m := Run(o)
	if m.MBps <= 0 {
		t.Fatalf("MBps = %v", m.MBps)
	}
	// 4 iods on 4 ports: ceiling ~470 MB/s.
	if m.MBps > 480 {
		t.Fatalf("MBps = %v exceeds the 4-port wire", m.MBps)
	}
	if m.ClientCPU <= 0 || m.ServerCPU <= 0 {
		t.Fatal("idle CPUs during benchmark")
	}
}

func TestRunWriteBenchmark(t *testing.T) {
	o := Options{
		Feat: ioat.None(), Seed: 1, IODs: 4, Clients: 2, Write: true,
		Warm: 10 * time.Millisecond, Meas: 30 * time.Millisecond,
	}
	m := Run(o)
	if m.MBps <= 0 {
		t.Fatalf("MBps = %v", m.MBps)
	}
}

func TestIOATReducesReadClientCPU(t *testing.T) {
	run := func(feat ioat.Features) Metrics {
		return Run(Options{
			Feat: feat, Seed: 1, IODs: 6, Clients: 4,
			Warm: 10 * time.Millisecond, Meas: 40 * time.Millisecond,
		})
	}
	plain := run(ioat.None())
	accel := run(ioat.Linux())
	if accel.ClientCPU >= plain.ClientCPU {
		t.Fatalf("I/OAT client CPU %v not below non-I/OAT %v",
			accel.ClientCPU, plain.ClientCPU)
	}
	if accel.MBps < plain.MBps*0.98 {
		t.Fatalf("I/OAT throughput regressed: %v vs %v", accel.MBps, plain.MBps)
	}
}
