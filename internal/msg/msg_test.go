package msg

import (
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

type req struct {
	Path string
	N    int
}

func setup(t *testing.T) (*host.Cluster, *Conn, *Conn) {
	t.Helper()
	cl, a, b := host.Testbed1(cost.Default(), ioat.Linux(), 1)
	ca, cb := tcp.Pair(a.Stack, b.Stack, 0, 0)
	return cl, Wrap(ca), Wrap(cb)
}

// start runs fn on a new task named name, with an Async over m driven by
// that task.
func start(cl *host.Cluster, m *Conn, name string, fn func(a *Async)) {
	t := cl.S.NewTask(name)
	a := NewAsync(m, t)
	t.Start(func() { fn(a) })
}

// loop runs step n times in sequence: each call gets the continuation
// that runs the next.
func loop(n int, step func(i int, next func())) {
	i := 0
	var next func()
	next = func() {
		if i < n {
			i++
			step(i-1, next)
		}
	}
	next()
}

func TestRequestResponse(t *testing.T) {
	cl, client, server := setup(t)
	var got req
	var respBody int
	start(cl, server, "server", func(a *Async) {
		a.Recv(server.T.Stack().Mem.Space.Alloc(4*cost.KB, 0), func(env Envelope) {
			got = env.Meta.(req)
			a.Send("resp", got.N, server.T.Stack().Mem.Space.Alloc(got.N, 0), tcp.SendOptions{}, func() {})
		})
	})
	start(cl, client, "client", func(a *Async) {
		a.Send(req{Path: "/a", N: 16 * cost.KB}, 0, client.T.Stack().Mem.Space.Alloc(1, 0), tcp.SendOptions{}, func() {
			a.Recv(client.T.Stack().Mem.Space.Alloc(16*cost.KB, 0), func(env Envelope) { respBody = env.Body })
		})
	})
	cl.S.Run()
	if got.Path != "/a" || got.N != 16*cost.KB {
		t.Fatalf("server got %+v", got)
	}
	if respBody != 16*cost.KB {
		t.Fatalf("client got body %d", respBody)
	}
}

func TestMessageOrdering(t *testing.T) {
	cl, client, server := setup(t)
	var order []int
	start(cl, server, "server", func(a *Async) {
		loop(5, func(_ int, next func()) {
			a.Recv(server.hdr, func(env Envelope) {
				order = append(order, env.Meta.(int))
				next()
			})
		})
	})
	start(cl, client, "client", func(a *Async) {
		loop(5, func(i int, next func()) {
			a.Send(i, 1024*(i+1), client.hdr, tcp.SendOptions{}, next)
		})
	})
	cl.S.Run()
	if len(order) != 5 {
		t.Fatalf("received %d messages", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestRecvBeforeSendBlocks(t *testing.T) {
	cl, client, server := setup(t)
	var recvAt, sendAt sim.Time
	start(cl, server, "server", func(a *Async) {
		a.Recv(server.hdr, func(Envelope) { recvAt = cl.S.Now() })
	})
	start(cl, client, "client", func(a *Async) {
		a.Task().OnWake(func() {
			sendAt = cl.S.Now()
			a.Send("late", 0, client.hdr, tcp.SendOptions{}, func() {})
		})
		a.Task().WakeAfter(5 * time.Millisecond)
	})
	cl.S.Run()
	if recvAt <= sendAt {
		t.Fatalf("recv at %v before send at %v", recvAt, sendAt)
	}
}

func TestWrapIdempotent(t *testing.T) {
	_, client, _ := setup(t)
	if Wrap(client.T) != client {
		t.Fatal("Wrap created a second wrapper")
	}
}

func TestZeroBodyMessages(t *testing.T) {
	cl, client, server := setup(t)
	count := 0
	start(cl, server, "server", func(a *Async) {
		loop(3, func(_ int, next func()) {
			a.Recv(server.hdr, func(env Envelope) {
				if env.Body != 0 {
					t.Errorf("body = %d", env.Body)
				}
				count++
				next()
			})
		})
	})
	start(cl, client, "client", func(a *Async) {
		loop(3, func(_ int, next func()) {
			a.Send("ping", 0, client.hdr, tcp.SendOptions{}, next)
		})
	})
	cl.S.Run()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}
