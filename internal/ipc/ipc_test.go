package ipc

import (
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
)

func newNode() (*host.Cluster, *host.Node) {
	cl := host.NewCluster(cost.Default(), 1)
	return cl, cl.Add("n", ioat.Linux(), 1)
}

// produce starts a task that sends the messages in sizes from src in
// turn, and runs done after the last.
func produce(cl *host.Cluster, ch *Channel, src mem.Buffer, sizes []int, done func()) {
	t := cl.S.NewTask("producer")
	i := 0
	var next func()
	next = func() {
		if i == len(sizes) {
			done()
			return
		}
		i++
		ch.Send(t, src, sizes[i-1], next)
	}
	t.Start(next)
}

// consume starts a task that receives n messages into dst, calling got
// with each one's size, and runs done after the last.
func consume(cl *host.Cluster, ch *Channel, dst mem.Buffer, n int, got func(int), done func()) {
	t := cl.S.NewTask("consumer")
	i := 0
	var next func(int)
	next = func(size int) {
		if i > 0 {
			got(size)
		}
		if i == n {
			done()
			return
		}
		i++
		ch.Recv(t, dst, next)
	}
	t.Start(func() { next(0) })
}

// repeat returns n copies of size.
func repeat(size, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

func TestDelivery(t *testing.T) {
	cl, n := newNode()
	ch := New(n, 64*cost.KB, 8)
	src := n.Buf(64 * cost.KB)
	dst := n.Buf(64 * cost.KB)
	var got []int
	produce(cl, ch, src, []int{100, 4 * cost.KB, 64 * cost.KB}, func() {})
	consume(cl, ch, dst, 3, func(n int) { got = append(got, n) }, func() {})
	cl.S.Run()
	want := []int{100, 4 * cost.KB, 64 * cost.KB}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if ch.Messages != 3 || ch.Bytes != int64(100+4*cost.KB+64*cost.KB) {
		t.Fatalf("stats: %d msgs, %d bytes", ch.Messages, ch.Bytes)
	}
}

func TestBackpressure(t *testing.T) {
	cl, n := newNode()
	ch := New(n, 4*cost.KB, 2)
	src := n.Buf(4 * cost.KB)
	dst := n.Buf(4 * cost.KB)
	var thirdSentAt, firstRecvAt sim.Time = -1, -1
	// The third send must wait for the consumer.
	produce(cl, ch, src, repeat(4*cost.KB, 3), func() { thirdSentAt = cl.S.Now() })
	late := cl.S.NewTask("late")
	late.OnWake(func() {
		firstRecvAt = cl.S.Now()
		consume(cl, ch, dst, 3, func(int) {}, func() {})
	})
	late.WakeAfter(time.Millisecond)
	cl.S.Run()
	if thirdSentAt < firstRecvAt {
		t.Fatalf("third send at %v before consumer started at %v — ring unbounded",
			thirdSentAt, firstRecvAt)
	}
}

func TestEngineModeFreesProducerCPU(t *testing.T) {
	// Producer-side CPU for a 64K message: engine mode pays setup only.
	run := func(mode Mode) time.Duration {
		cl, n := newNode()
		ch := New(n, 64*cost.KB, 8)
		ch.Mode = mode
		src := n.Buf(64 * cost.KB)
		dst := n.Buf(64 * cost.KB)
		var producerCPU time.Duration
		start := n.CPU.BusyTime()
		produce(cl, ch, src, repeat(64*cost.KB, 16), func() { producerCPU = n.CPU.BusyTime() - start })
		consume(cl, ch, dst, 16, func(int) {}, func() {})
		cl.S.Run()
		return producerCPU
	}
	// Note: BusyTime includes the consumer's concurrent work, so compare
	// whole-run CPU, which is dominated by the copies.
	if run(EngineCopy) >= run(CPUCopy) {
		t.Fatal("engine mode did not reduce CPU")
	}
}

func TestThroughputPipelines(t *testing.T) {
	// With a deep ring, engine-mode messages pipeline: total time for N
	// messages approaches N * transferTime, not N * (2 transfers).
	cl, n := newNode()
	ch := New(n, 64*cost.KB, 16)
	ch.Mode = EngineCopy
	src := n.Buf(64 * cost.KB)
	dst := n.Buf(64 * cost.KB)
	const N = 32
	var done sim.Time
	produce(cl, ch, src, repeat(64*cost.KB, N), func() {})
	consume(cl, ch, dst, N, func(int) {}, func() { done = cl.S.Now() })
	cl.S.Run()
	perMsg := n.DMA.TransferTime(64 * cost.KB)
	// 2 engine transfers per message on one engine: the floor is 2N
	// transfer times; allow 30% overhead.
	floor := time.Duration(2*N) * perMsg
	if time.Duration(done) > floor*13/10 {
		t.Fatalf("32 messages took %v, floor %v — not pipelining", time.Duration(done), floor)
	}
}

func TestOversizeMessagePanics(t *testing.T) {
	cl, n := newNode()
	ch := New(n, 4*cost.KB, 2)
	_ = cl
	defer func() {
		if recover() == nil {
			t.Fatal("oversize message did not panic")
		}
	}()
	// Calling Send without a task is fine up to the panic point.
	ch.Send(nil, n.Buf(8*cost.KB), 8*cost.KB, nil)
}
