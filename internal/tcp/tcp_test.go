package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/cpu"
	"ioatsim/internal/dma"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/nic"
	"ioatsim/internal/sim"
)

type node struct {
	st *Stack
}

func newNode(s *sim.Simulator, p *cost.Params, feat ioat.Features, name string, ports int) *node {
	m := mem.NewModel(p)
	c := cpu.New(s, p)
	e := dma.New(s, p, m)
	n := nic.New(s, p, c, m, feat, name, ports)
	return &node{st: NewStack(s, p, c, m, e, n, feat, name)}
}

func (n *node) buf(size int) mem.Buffer { return n.st.Mem.Space.Alloc(size, 0) }

// setChecker hands chk to every device under st, as host does.
func setChecker(st *Stack, chk *check.Checker) {
	st.Mem.SetChecker(chk)
	st.CPU.SetChecker(chk)
	st.DMA.SetChecker(chk)
	st.NIC.SetChecker(chk)
	st.SetChecker(chk)
}

// sendSeq starts a task that sends the messages in sizes from src on c,
// each one's done callback starting the next, runs done after the last,
// and returns the Sender.
func sendSeq(s *sim.Simulator, c *Conn, src mem.Buffer, opts SendOptions, sizes []int, done func()) *Sender {
	tx := NewSender(c, s.NewTask("tx"))
	i := 0
	var next func()
	next = func() {
		if i == len(sizes) {
			done()
			return
		}
		i++
		tx.SendOpts(src, sizes[i-1], opts, next)
	}
	tx.Task().Start(next)
	return tx
}

// recvSeq starts a task that receives the messages in sizes into dst on
// c, each one's done callback starting the next, runs done after the
// last, and returns the Receiver.
func recvSeq(s *sim.Simulator, c *Conn, dst mem.Buffer, sizes []int, done func()) *Receiver {
	rx := NewReceiver(c, s.NewTask("rx"))
	i := 0
	var next func()
	next = func() {
		if i == len(sizes) {
			done()
			return
		}
		i++
		rx.Recv(dst, sizes[i-1], next)
	}
	rx.Task().Start(next)
	return rx
}

// transfer starts one n-byte message from ca to cb, each side on a task
// of its own; done runs once the receiver has it all.
func transfer(s *sim.Simulator, ca, cb *Conn, src, dst mem.Buffer, n int, done func()) {
	sendSeq(s, ca, src, SendOptions{}, []int{n}, func() {})
	recvSeq(s, cb, dst, []int{n}, done)
}

func twoNodes(feat ioat.Features, p *cost.Params) (*sim.Simulator, *node, *node) {
	s := sim.New()
	a := newNode(s, p, feat, "a", 6)
	b := newNode(s, p, feat, "b", 6)
	return s, a, b
}

func TestStreamDelivery(t *testing.T) {
	p := cost.Default()
	s, a, b := twoNodes(ioat.None(), p)
	ca, cb := Pair(a.st, b.st, 0, 0)
	const n = 256 * cost.KB
	var got int
	src := a.buf(64 * cost.KB)
	dst := b.buf(64 * cost.KB)
	transfer(s, ca, cb, src, dst, n, func() { got = n })
	end := s.Run()
	if got != n {
		t.Fatal("receiver did not get all bytes")
	}
	if a.st.BytesSent != n || b.st.BytesReceived != n {
		t.Fatalf("accounting: sent=%d recv=%d", a.st.BytesSent, b.st.BytesReceived)
	}
	// 256 KB at ~941 Mb/s goodput is ~2.2 ms; allow up to 4 ms.
	if end > sim.Time(4*time.Millisecond) {
		t.Fatalf("transfer took %v, far above wire time", end)
	}
}

func TestThroughputNearLineRate(t *testing.T) {
	p := cost.Default()
	s, a, b := twoNodes(ioat.None(), p)
	ca, cb := Pair(a.st, b.st, 0, 0)
	const n = 8 * cost.MB
	src := a.buf(64 * cost.KB)
	dst := b.buf(64 * cost.KB)
	var done sim.Time
	transfer(s, ca, cb, src, dst, n, func() { done = s.Now() })
	s.Run()
	mbps := float64(n*8) / time.Duration(done).Seconds() / 1e6
	if mbps < 850 || mbps > 945 {
		t.Fatalf("single-port goodput = %.1f Mb/s, want ~900-941", mbps)
	}
}

func TestWindowBlocksSender(t *testing.T) {
	p := cost.Default()
	p.SockBuf = 128 * cost.KB
	s, a, b := twoNodes(ioat.None(), p)
	ca, cb := Pair(a.st, b.st, 0, 0)
	src := a.buf(64 * cost.KB)
	dst := b.buf(64 * cost.KB)
	var sendDone, recvStart sim.Time = -1, -1
	sendSeq(s, ca, src, SendOptions{}, []int{1 * cost.MB}, func() { sendDone = s.Now() })
	rx := NewReceiver(cb, s.NewTask("rx"))
	rx.Task().OnWake(func() {
		recvStart = s.Now()
		rx.Recv(dst, 1*cost.MB, func() {})
	})
	rx.Task().WakeAfter(20 * time.Millisecond) // receiver absent: window must cap flight
	s.Run()
	if sendDone < 0 {
		t.Fatal("sender never finished")
	}
	if sendDone < recvStart {
		t.Fatalf("sender finished at %v before receiver started at %v — window did not block", sendDone, recvStart)
	}
	if got := cb.rxAvail; got != 0 {
		t.Fatalf("unconsumed bytes: %d", got)
	}
}

func TestInflightNeverExceedsWindow(t *testing.T) {
	p := cost.Default()
	p.SockBuf = 128 * cost.KB
	s, a, b := twoNodes(ioat.None(), p)
	ca, cb := Pair(a.st, b.st, 0, 0)
	src := a.buf(64 * cost.KB)
	dst := b.buf(64 * cost.KB)
	transfer(s, ca, cb, src, dst, 2*cost.MB, func() {})
	bad := false
	var watch func()
	watch = func() {
		if ca.inflight > ca.window {
			bad = true
		}
		if s.Pending() > 0 {
			s.Schedule(100*time.Microsecond, watch)
		}
	}
	s.Schedule(0, watch)
	s.Run()
	if bad {
		t.Fatal("inflight exceeded window")
	}
}

func TestIOATUsesLessCPU(t *testing.T) {
	// The core claim (Fig. 3a): same transfer, same bandwidth, lower
	// receiver CPU with I/OAT.
	busy := func(feat ioat.Features) (time.Duration, sim.Time) {
		p := cost.Default()
		s, a, b := twoNodes(feat, p)
		ca, cb := Pair(a.st, b.st, 0, 0)
		src := a.buf(64 * cost.KB)
		dst := b.buf(64 * cost.KB)
		var done sim.Time
		transfer(s, ca, cb, src, dst, 4*cost.MB, func() { done = s.Now() })
		s.Run()
		return b.st.CPU.BusyTime(), done
	}
	plainBusy, plainDone := busy(ioat.None())
	ioatBusy, ioatDone := busy(ioat.Linux())
	if ioatBusy >= plainBusy {
		t.Fatalf("I/OAT receiver CPU %v not below non-I/OAT %v", ioatBusy, plainBusy)
	}
	// Both should be wire-limited: completion times within 5%.
	ratio := float64(ioatDone) / float64(plainDone)
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("completion ratio %v — link-bound transfers should tie", ratio)
	}
	// Relative CPU benefit should be substantial (paper: ~20-38%).
	rel := float64(plainBusy-ioatBusy) / float64(plainBusy)
	if rel < 0.10 {
		t.Fatalf("relative CPU benefit only %.1f%%", rel*100)
	}
}

func TestDialAccept(t *testing.T) {
	p := cost.Default()
	s, a, b := twoNodes(ioat.None(), p)
	var msg int
	var acceptedAt sim.Time
	src := a.buf(4 * cost.KB)
	dst := b.buf(4 * cost.KB)
	client := s.NewTask("client")
	client.Start(func() {
		a.st.Dial(client, b.st, "svc", 0, 0, func(c *Conn) {
			NewSender(c, client).Send(src, 4*cost.KB, func() {})
		})
	})
	b.st.Listen("svc").Serve("server", func(i int, c *Conn) {
		if i != 0 {
			t.Errorf("accept index %d, want 0", i)
		}
		acceptedAt = s.Now()
		recvSeq(s, c, dst, []int{4 * cost.KB}, func() { msg = 4 * cost.KB })
	})
	s.Run()
	if msg != 4*cost.KB {
		t.Fatal("request never arrived through Dial/Accept")
	}
	// Dial charges its syscall and a round trip, the listener's node its
	// syscall, and the accept its context switch back to the thread.
	if floor := sim.Time(p.Syscall + 2*p.PropDelay + p.Syscall + p.ContextSwitch); acceptedAt < floor {
		t.Fatalf("accepted at %v, before the handshake's %v of charges", acceptedAt, floor)
	}
}

func TestDuplicateListenPanics(t *testing.T) {
	p := cost.Default()
	_, _, b := twoNodes(ioat.None(), p)
	b.st.Listen("svc")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicate listener")
		}
	}()
	b.st.Listen("svc")
}

func TestZeroCopySendCheaper(t *testing.T) {
	busy := func(zc bool) time.Duration {
		p := cost.Default()
		s, a, b := twoNodes(ioat.None(), p)
		ca, cb := Pair(a.st, b.st, 0, 0)
		src := a.buf(64 * cost.KB)
		dst := b.buf(64 * cost.KB)
		sendSeq(s, ca, src, SendOptions{ZeroCopy: zc}, []int{4 * cost.MB}, func() {})
		recvSeq(s, cb, dst, []int{4 * cost.MB}, func() {})
		s.Run()
		return a.st.CPU.BusyTime()
	}
	if busy(true) >= busy(false) {
		t.Fatal("sendfile-style zero copy did not reduce sender CPU")
	}
}

func TestTSOReducesSenderCPU(t *testing.T) {
	busy := func(tso bool) time.Duration {
		p := cost.Default()
		p.TSO = tso
		s, a, b := twoNodes(ioat.None(), p)
		ca, cb := Pair(a.st, b.st, 0, 0)
		src := a.buf(64 * cost.KB)
		dst := b.buf(64 * cost.KB)
		transfer(s, ca, cb, src, dst, 4*cost.MB, func() {})
		s.Run()
		return a.st.CPU.BusyTime()
	}
	if busy(true) >= busy(false) {
		t.Fatal("TSO did not reduce sender CPU")
	}
}

func TestMultiPortScalesBandwidth(t *testing.T) {
	run := func(ports int) float64 {
		p := cost.Default()
		s, a, b := twoNodes(ioat.Linux(), p)
		var done sim.Time
		left := ports
		const per = 4 * cost.MB
		for i := 0; i < ports; i++ {
			ca, cb := Pair(a.st, b.st, i, i)
			src := a.buf(64 * cost.KB)
			dst := b.buf(64 * cost.KB)
			transfer(s, ca, cb, src, dst, per, func() {
				if left--; left == 0 {
					done = s.Now()
				}
			})
		}
		s.Run()
		return float64(ports*per*8) / time.Duration(done).Seconds() / 1e6
	}
	one := run(1)
	four := run(4)
	if four < 3*one {
		t.Fatalf("4 ports = %.0f Mb/s, 1 port = %.0f — poor scaling", four, one)
	}
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() sim.Time {
		p := cost.Default()
		s, a, b := twoNodes(ioat.Linux(), p)
		ca, cb := Pair(a.st, b.st, 0, 0)
		src := a.buf(64 * cost.KB)
		dst := b.buf(64 * cost.KB)
		var done sim.Time
		transfer(s, ca, cb, src, dst, 1*cost.MB, func() { done = s.Now() })
		s.Run()
		return done
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

func TestMessageBoundariesAcrossChunks(t *testing.T) {
	// Header-then-body reads that straddle chunk boundaries must work.
	p := cost.Default()
	s, a, b := twoNodes(ioat.None(), p)
	ca, cb := Pair(a.st, b.st, 0, 0)
	src := a.buf(64 * cost.KB)
	dst := b.buf(64 * cost.KB)
	total := 0
	sendSeq(s, ca, src, SendOptions{}, []int{200 * cost.KB}, func() {}) // > 3 chunks
	recvSeq(s, cb, dst, []int{64, 100*cost.KB - 64, 100 * cost.KB}, func() { total = 200 * cost.KB })
	s.Run()
	if total != 200*cost.KB {
		t.Fatalf("consumed %d, want %d", total, 200*cost.KB)
	}
}

func TestKernelBuffersReleased(t *testing.T) {
	p := cost.Default()
	s, a, b := twoNodes(ioat.Linux(), p)
	ca, cb := Pair(a.st, b.st, 0, 0)
	src := a.buf(64 * cost.KB)
	dst := b.buf(64 * cost.KB)
	transfer(s, ca, cb, src, dst, 2*cost.MB, func() {})
	s.Run()
	if live := b.st.NIC.PoolLiveBytes(); live != 0 {
		t.Fatalf("kernel buffer leak: %d bytes live", live)
	}
}

// Property: any sequence of message sizes is delivered completely and in
// order, regardless of feature set, and kernel buffers drain.
func TestTransferConservationProperty(t *testing.T) {
	run := func(sizes []uint16, accel bool) bool {
		p := cost.Default()
		feat := ioat.None()
		if accel {
			feat = ioat.Linux()
		}
		s, a, b := twoNodes(feat, p)
		ca, cb := Pair(a.st, b.st, 0, 0)
		src, dst := a.buf(64*cost.KB), b.buf(64*cost.KB)
		var total int64
		msgs := make([]int, 0, len(sizes))
		for _, sz := range sizes {
			n := int(sz)%(200*cost.KB) + 1
			msgs = append(msgs, n)
			total += int64(n)
		}
		if len(msgs) == 0 {
			return true
		}
		received := false
		sendSeq(s, ca, src, SendOptions{}, msgs, func() {})
		recvSeq(s, cb, dst, msgs, func() { received = true })
		s.Run()
		return received &&
			a.st.BytesSent == total &&
			b.st.BytesReceived == total &&
			b.st.NIC.PoolLiveBytes() == 0
	}
	f := func(sizes []uint16, accel bool) bool { return run(sizes, accel) }
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyCostEveryConsumeOffset drives the CPU copy path of Recv across
// a multi-frame chunk at every consume offset: the message arrives as one
// chunk spanning several frames (the last one partial), and the receiver
// drains it in recv sizes that together visit every frame index and every
// frame-boundary crossing. The checked invariant in copyCost (frame index
// strictly inside the chunk's buffer list — formerly a silent clamp) must
// hold at each step, and the run's conservation ledgers must balance.
func TestCopyCostEveryConsumeOffset(t *testing.T) {
	p := cost.Default()
	mss := p.MSS()
	msg := 3*mss + 500 // 4 frames, last one partial
	for _, step := range []int{1, 7, mss - 1, mss, mss + 1, msg} {
		chk := check.New()
		s := sim.New(sim.WithProbe(chk))
		a := newNode(s, p, ioat.None(), "a", 1)
		b := newNode(s, p, ioat.None(), "b", 1)
		setChecker(a.st, chk)
		setChecker(b.st, chk)
		ca, cb := Pair(a.st, b.st, 0, 0)
		src := a.buf(8 * cost.KB)
		dst := b.buf(8 * cost.KB)
		var pieces []int
		for left := msg; left > 0; left -= step {
			pieces = append(pieces, min(step, left))
		}
		var got int
		sendSeq(s, ca, src, SendOptions{}, []int{msg}, func() {})
		recvSeq(s, cb, dst, pieces, func() { got = msg })
		s.Run()
		if got != msg {
			t.Fatalf("step %d: received %d of %d bytes", step, got, msg)
		}
		chk.Finish()
		if err := chk.Err(); err != nil {
			t.Fatalf("step %d: invariant violated: %v", step, err)
		}
	}
}

// recoverPanic runs fn and returns what it panicked with, or nil.
func recoverPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestConcurrentTransferPanics checks the one-transfer-per-direction
// rule on an endpoint: a second send or receive while one is in flight
// panics instead of overwriting the first one's state, on one Sender or
// Receiver, across two Senders or two Receivers sharing a closed window
// or an empty queue, and from an event partway through a transfer, which
// must still complete undisturbed.
func TestConcurrentTransferPanics(t *testing.T) {
	const sendMsg, recvMsg = "tcp: concurrent Send on one connection", "tcp: concurrent Recv on one connection"
	p := cost.Default()
	p.SockBuf = 32 * cost.KB
	expect := func(what string, got any, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: panic %v, want %q", what, got, want)
		}
	}

	s, a, b := twoNodes(ioat.None(), p)
	ca, cb := Pair(a.st, b.st, 0, 0)
	src, dst := a.buf(64*cost.KB), b.buf(64*cost.KB)
	tx := NewSender(ca, s.NewTask("tx"))
	rx := NewReceiver(cb, s.NewTask("rx"))
	tx.Send(src, cost.MB, func() {})
	expect("Sender", recoverPanic(func() { tx.Send(src, 1, func() {}) }), sendMsg)
	rx.Recv(dst, cost.MB, func() {})
	expect("Receiver", recoverPanic(func() { rx.Recv(dst, 1, func() {}) }), recvMsg)
	// A second Sender on the same endpoint collides at the window stall.
	NewSender(ca, s.NewTask("tx2")).Send(src, cost.MB, func() {})
	expect("second Sender", recoverPanic(func() { s.Run() }), sendMsg)

	// A second Receiver on the same endpoint collides at the empty queue.
	s, a, b = twoNodes(ioat.None(), p)
	_, cb = Pair(a.st, b.st, 0, 0)
	dst = b.buf(64 * cost.KB)
	NewReceiver(cb, s.NewTask("rx")).Recv(dst, cost.MB, func() {})
	rx2 := NewReceiver(cb, s.NewTask("rx2"))
	expect("second Receiver", recoverPanic(func() { rx2.Recv(dst, 1, func() {}) }), recvMsg)

	// A refused second call partway through leaves the first transfer's
	// state alone: it still completes with every byte sent and consumed.
	s, a, b = twoNodes(ioat.None(), p)
	ca, cb = Pair(a.st, b.st, 0, 0)
	src, dst = a.buf(64*cost.KB), b.buf(64*cost.KB)
	finished := false
	tx = sendSeq(s, ca, src, SendOptions{}, []int{cost.MB}, func() {})
	rx = recvSeq(s, cb, dst, []int{cost.MB}, func() { finished = true })
	var sendPanic, recvPanic any
	var midway int64
	s.Schedule(time.Millisecond, func() {
		midway = a.st.BytesSent
		sendPanic = recoverPanic(func() { tx.Send(src, 1, func() {}) })
		recvPanic = recoverPanic(func() { rx.Recv(dst, 1, func() {}) })
	})
	s.Run()
	if midway == 0 || midway >= cost.MB {
		t.Fatalf("second calls made with %d of %d bytes sent, want partway", midway, cost.MB)
	}
	expect("Sender midway", sendPanic, sendMsg)
	expect("Receiver midway", recvPanic, recvMsg)
	if !finished || cb.rxAvail != 0 || a.st.BytesSent != cost.MB {
		t.Errorf("first transfer disturbed: finished %v, sent %d, %d bytes left unconsumed", finished, a.st.BytesSent, cb.rxAvail)
	}
}
