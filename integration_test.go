package ioatsim

import (
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/datacenter"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/pvfs"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// TestByteConservation checks that every byte a sender hands to the
// transport is delivered exactly once across a mixed multi-stream run,
// with the runtime invariant checker auditing every layer in between.
func TestByteConservation(t *testing.T) {
	cl, a, b := host.Testbed1(cost.Default(), ioat.Linux(), 1, host.WithCheck())
	sizes := []int{1, 777, 4 * cost.KB, 100 * cost.KB, 3 * cost.MB}
	var want int64
	for i, n := range sizes {
		n := n
		want += int64(n)
		ca, cb := tcp.Pair(a.Stack, b.Stack, i%6, i%6)
		src, dst := a.Buf(64*cost.KB), b.Buf(64*cost.KB)
		transfer(cl.S, ca, cb, src, dst, n, func() {})
	}
	cl.S.Run()
	if a.Stack.BytesSent != want || b.Stack.BytesReceived != want {
		t.Fatalf("sent %d received %d, want %d",
			a.Stack.BytesSent, b.Stack.BytesReceived, want)
	}
	if live := b.NIC.PoolLiveBytes(); live != 0 {
		t.Fatalf("kernel buffers leaked: %d bytes", live)
	}
	if fl := cl.Check.Ledger("tcp:stream").InFlight(); fl != 0 {
		t.Fatalf("%d stream bytes in flight after the run drained", fl)
	}
	if err := cl.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossDomainSharedSimulator runs the data-center and PVFS stacks in
// one simulation to make sure nothing relies on process-global state.
func TestCrossDomainSharedSimulator(t *testing.T) {
	cl := host.NewCluster(cost.Default(), 1)
	compute := cl.Add("compute", ioat.Linux(), 6)
	server := cl.Add("server", ioat.Linux(), 6)
	sys := pvfs.New(server, 3, 0)

	var readDone, echoed bool
	user := cl.S.NewTask("pvfs-user")
	user.Start(func() {
		pvfs.NewClient(user, compute, sys, func(c *pvfs.Client) {
			c.Create("x", 2*cost.MB, func(m pvfs.FileMeta) {
				c.Read(m, 0, 2*cost.MB, compute.Buf(2*cost.MB), func() { readDone = true })
			})
		})
	})
	// A raw TCP echo on the same two nodes, different port.
	server.Stack.Listen("echo").Serve("echo-server", func(_ int, c *tcp.Conn) {
		dst := server.Buf(8 * cost.KB)
		echo := cl.S.NewTask("echo")
		rx, tx := tcp.NewReceiver(c, echo), tcp.NewSender(c, echo)
		rx.Recv(dst, 8*cost.KB, func() { tx.Send(dst, 8*cost.KB, func() {}) })
	})
	client := cl.S.NewTask("echo-client")
	client.Start(func() {
		compute.Stack.Dial(client, server.Stack, "echo", 5, 5, func(c *tcp.Conn) {
			buf := compute.Buf(8 * cost.KB)
			tx, rx := tcp.NewSender(c, client), tcp.NewReceiver(c, client)
			tx.Send(buf, 8*cost.KB, func() {
				rx.Recv(buf, 8*cost.KB, func() { echoed = true })
			})
		})
	})
	cl.S.Run()
	if !readDone || !echoed {
		t.Fatalf("readDone=%v echoed=%v", readDone, echoed)
	}
}

// TestEndToEndDeterminism runs a full data-center experiment twice and
// demands bit-identical metrics.
func TestEndToEndDeterminism(t *testing.T) {
	o := datacenter.Options{
		Feat: ioat.Linux(), Seed: 42,
		ClientNodes: 4, ThreadsPerClient: 2,
		FileCount: 50, FileSize: 4 * cost.KB, Alpha: 0.9,
		Warm: 10 * time.Millisecond, Meas: 25 * time.Millisecond,
	}
	a := datacenter.RunTwoTier(o)
	b := datacenter.RunTwoTier(o)
	if a != b {
		t.Fatalf("nondeterministic end-to-end run:\n%+v\n%+v", a, b)
	}
}

// TestSeedChangesZipfRun makes sure the seed actually feeds the workload.
func TestSeedChangesZipfRun(t *testing.T) {
	run := func(seed uint64) datacenter.Metrics {
		return datacenter.RunTwoTier(datacenter.Options{
			Feat: ioat.Linux(), Seed: seed,
			ClientNodes: 4, ThreadsPerClient: 2,
			FileCount: 50, FileSize: 4 * cost.KB, Alpha: 0.9,
			Warm: 10 * time.Millisecond, Meas: 25 * time.Millisecond,
		})
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical metrics (suspicious)")
	}
}

// TestFeatureMatrix exercises every feature combination end to end: all
// must deliver the stream, and the full set must not use more CPU than
// the empty set.
func TestFeatureMatrix(t *testing.T) {
	feats := []ioat.Features{
		ioat.None(),
		{DMACopy: true},
		{SplitHeader: true},
		{MultiQueue: true},
		ioat.Linux(),
		ioat.Full(),
	}
	var busies []time.Duration
	for _, f := range feats {
		cl, a, b := host.Testbed1(cost.Default(), f, 1)
		ca, cb := tcp.Pair(a.Stack, b.Stack, 0, 0)
		src, dst := a.Buf(64*cost.KB), b.Buf(64*cost.KB)
		okc := false
		transfer(cl.S, ca, cb, src, dst, 4*cost.MB, func() { okc = true })
		cl.S.Run()
		if !okc {
			t.Fatalf("feature set %+v failed to deliver", f)
		}
		busies = append(busies, b.CPU.BusyTime())
	}
	if busies[len(busies)-1] >= busies[0] {
		t.Fatalf("full I/OAT (%v) not below non-I/OAT (%v)",
			busies[len(busies)-1], busies[0])
	}
}

// transfer starts one n-byte transfer from ca to cb, each side on a task
// of its own; done runs when the receiver has it all.
func transfer(s *sim.Simulator, ca, cb *tcp.Conn, src, dst mem.Buffer, n int, done func()) {
	tx := tcp.NewSender(ca, s.NewTask("tx"))
	rx := tcp.NewReceiver(cb, s.NewTask("rx"))
	tx.Task().Start(func() { tx.Send(src, n, func() {}) })
	rx.Task().Start(func() { rx.Recv(dst, n, done) })
}
