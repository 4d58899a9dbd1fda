package host

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/msg"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
	"ioatsim/internal/trace"
)

func TestTestbed1Shape(t *testing.T) {
	c, a, b := Testbed1(cost.Default(), ioat.Linux(), 1)
	if len(c.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	if a.CPU.NumCores() != 4 || b.CPU.NumCores() != 4 {
		t.Fatal("Testbed 1 nodes must have 4 cores")
	}
	if len(a.NIC.Ports) != 6 || len(b.NIC.Ports) != 6 {
		t.Fatal("Testbed 1 nodes must have 6 ports")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	c := NewCluster(cost.Default(), 1)
	c.Add("x", ioat.None(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	c.Add("x", ioat.None(), 1)
}

func TestAddClients(t *testing.T) {
	c := NewCluster(cost.Default(), 1)
	clients := c.AddClients(5, ioat.None())
	if len(clients) != 5 || len(c.Nodes) != 5 {
		t.Fatal("client count wrong")
	}
	for _, cl := range clients {
		if len(cl.NIC.Ports) != 1 {
			t.Fatal("clients must have one port")
		}
	}
}

func TestEndToEndTransferAcrossCluster(t *testing.T) {
	c, a, b := Testbed1(cost.Default(), ioat.Linux(), 1)
	ca, cb := tcp.Pair(a.Stack, b.Stack, 0, 0)
	src, dst := a.Buf(64*cost.KB), b.Buf(64*cost.KB)
	var done sim.Time
	transfer(c.S, ca, cb, src, dst, cost.MB, cost.MB, func() { done = c.S.Now() })
	c.S.Run()
	if done <= 0 {
		t.Fatal("transfer did not complete")
	}
	mbps := float64(cost.MB*8) / time.Duration(done).Seconds() / 1e6
	if mbps < 800 {
		t.Fatalf("goodput = %.0f Mb/s", mbps)
	}
}

func TestResetMetersClearsUtilization(t *testing.T) {
	c, a, b := Testbed1(cost.Default(), ioat.None(), 1)
	ca, cb := tcp.Pair(a.Stack, b.Stack, 0, 0)
	src, dst := a.Buf(64*cost.KB), b.Buf(64*cost.KB)
	transfer(c.S, ca, cb, src, dst, cost.MB, cost.MB, func() {})
	c.S.Run()
	if b.CPU.Utilization() <= 0 {
		t.Fatal("expected nonzero utilization after transfer")
	}
	c.ResetMeters()
	c.S.Schedule(time.Millisecond, func() {})
	c.S.Run()
	if u := b.CPU.Utilization(); u != 0 {
		t.Fatalf("utilization after reset and idle = %v, want 0", u)
	}
}

// TestClusterWiresEveryDevice checks that a cluster hands its checker
// to every device it builds, each NIC port and a framed connection
// included, and one observability bundle per node to each device of
// that node.
func TestClusterWiresEveryDevice(t *testing.T) {
	c := NewCluster(cost.Default(), 1, WithCheck(),
		WithObservability(Observability{Trace: trace.New(64), Profile: trace.NewProfiler()}))
	defer c.Close()
	a := c.Add("a", ioat.Full(), 2)
	b := c.Add("b", ioat.Full(), 2)
	ca, _ := tcp.Pair(a.Stack, b.Stack, 0, 0)
	field := func(dev any, name string) uintptr {
		return reflect.ValueOf(dev).Elem().FieldByName(name).Pointer()
	}
	chk := reflect.ValueOf(c.Check).Pointer()
	if got := field(msg.Wrap(ca), "chk"); got != chk {
		t.Errorf("msg.Conn checker %#x, want the cluster's %#x", got, chk)
	}
	bundles := make([]uintptr, 0, 2)
	for _, n := range []*Node{a, b} {
		devs := []any{n.CPU, n.Mem, n.DMA, n.NIC, n.Stack}
		for _, p := range n.NIC.Ports {
			devs = append(devs, p)
		}
		obs := field(n.CPU, "obs")
		for _, d := range devs {
			name := fmt.Sprintf("%s's %T", n.Name, d)
			if got := field(d, "chk"); got != chk {
				t.Errorf("%s checker %#x, want the cluster's %#x", name, got, chk)
			}
			if got := field(d, "obs"); got == 0 || got != obs {
				t.Errorf("%s observability bundle %#x, want the node's %#x", name, got, obs)
			}
		}
		bundles = append(bundles, obs)
	}
	if bundles[0] == bundles[1] {
		t.Errorf("both nodes share the observability bundle %#x", bundles[0])
	}
}

// TestClusterClose: Close, with a receive still waiting in a transfer
// that can never finish, releases every node's cache, leaves the
// simulator unable to run, leaves no goroutine behind, and does nothing
// the second time.
func TestClusterClose(t *testing.T) {
	base := runtime.NumGoroutine()
	c, a, b := Testbed1(cost.Default(), ioat.Linux(), 1)
	ca, cb := tcp.Pair(a.Stack, b.Stack, 0, 0)
	src, dst := a.Buf(64*cost.KB), b.Buf(64*cost.KB)
	transfer(c.S, ca, cb, src, dst, 64*cost.KB, cost.MB, func() {}) // waits for bytes never sent
	c.S.RunUntil(sim.Time(time.Second))
	c.Close()
	c.Close()
	for what, fn := range map[string]func(){
		"RunUntil":             func() { c.S.RunUntil(sim.Time(2 * time.Second)) },
		"node1's cache access": func() { a.Mem.Cache.AccessLines(0, 1) },
		"node2's cache access": func() { b.Mem.Cache.AccessLines(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", what)
				}
			}()
			fn()
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the cluster", n, base)
	}
}

// transfer starts a send of sent bytes from ca and a receive of want
// bytes on cb, each on a task of its own; done runs once the receive
// completes.
func transfer(s *sim.Simulator, ca, cb *tcp.Conn, src, dst mem.Buffer, sent, want int, done func()) {
	tx := tcp.NewSender(ca, s.NewTask("tx"))
	rx := tcp.NewReceiver(cb, s.NewTask("rx"))
	tx.Task().Start(func() { tx.Send(src, sent, func() {}) })
	rx.Task().Start(func() { rx.Recv(dst, want, done) })
}
