package nic

import (
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/cpu"
	"ioatsim/internal/ioat"
	"ioatsim/internal/link"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
)

type testFlow struct {
	id    int
	state mem.Buffer
}

func (f *testFlow) FlowID() int         { return f.id }
func (f *testFlow) StateAddr() mem.Addr { return f.state.Addr }

type rig struct {
	s    *sim.Simulator
	p    *cost.Params
	src  *NIC // sender
	dst  *NIC // receiver under test
	flow *testFlow
}

func newRig(feat ioat.Features) *rig {
	s := sim.New()
	p := cost.Default()
	mkNode := func(name string, f ioat.Features) *NIC {
		m := mem.NewModel(p)
		c := cpu.New(s, p)
		return New(s, p, c, m, f, name, 2)
	}
	src := mkNode("src", ioat.None())
	dst := mkNode("dst", feat)
	flow := &testFlow{id: 1, state: dst.Mem.Space.Alloc(4*64, 0)}
	return &rig{s: s, p: p, src: src, dst: dst, flow: flow}
}

// sendChunk pushes one chunk of n payload bytes from src port 0 to dst
// port 0.
func (r *rig) sendChunk(n int) {
	c := &link.Chunk{
		Bytes:     n,
		Frames:    r.p.Frames(n),
		WireBytes: r.p.WireBytes(n),
		Meta:      r.flow,
	}
	r.src.Port(0).Send(r.dst.Port(0), c)
}

func TestDeliverReachesTransport(t *testing.T) {
	r := newRig(ioat.None())
	var got *RxChunk
	r.dst.OnReceive = func(rx *RxChunk) { got = rx }
	r.sendChunk(16 * cost.KB)
	r.s.Run()
	if got == nil {
		t.Fatal("transport never received the chunk")
	}
	if got.Chunk.Bytes != 16*cost.KB {
		t.Fatalf("bytes = %d", got.Chunk.Bytes)
	}
	if len(got.Bufs) != r.p.Frames(16*cost.KB) {
		t.Fatalf("bufs = %d, want one per frame (%d)", len(got.Bufs), r.p.Frames(16*cost.KB))
	}
	if got.ReadyAt <= 0 {
		t.Fatal("ReadyAt not set")
	}
}

func TestSoftirqDelaysDelivery(t *testing.T) {
	// Receipt must land strictly after the wire time: protocol
	// processing costs CPU time on the rx core.
	r := newRig(ioat.None())
	var at sim.Time
	r.dst.OnReceive = func(rx *RxChunk) { at = r.s.Now() }
	r.sendChunk(16 * cost.KB)
	r.s.Run()
	wire := sim.Time(r.p.WireTime(16*cost.KB) + r.p.PropDelay)
	if at <= wire {
		t.Fatalf("delivered at %v, wire alone is %v — no processing cost?", at, wire)
	}
}

func TestRxCoreDefaultIsZero(t *testing.T) {
	r := newRig(ioat.None())
	if r.dst.RxCore(0, r.flow) != 0 {
		t.Fatal("rx processing must pin to core 0 without multi-queue")
	}
}

func TestRxCoreMultiQueueSpreads(t *testing.T) {
	r := newRig(ioat.Full())
	seen := map[int]bool{}
	for id := 0; id < 8; id++ {
		f := &testFlow{id: id, state: r.flow.state}
		seen[r.dst.RxCore(0, f)] = true
	}
	if len(seen) != r.dst.CPU.NumCores() {
		t.Fatalf("multi-queue used %d cores, want %d", len(seen), r.dst.CPU.NumCores())
	}
}

func TestInterruptCoalescing(t *testing.T) {
	r := newRig(ioat.None())
	r.dst.OnReceive = func(rx *RxChunk) { rx.Free() }
	r.sendChunk(64 * cost.KB) // 46 frames
	r.s.Run()
	frames := int64(r.p.Frames(64 * cost.KB))
	wantIntrs := (frames + int64(r.p.CoalesceFrames) - 1) / int64(r.p.CoalesceFrames)
	if r.dst.Interrupts != wantIntrs {
		t.Fatalf("interrupts = %d, want %d", r.dst.Interrupts, wantIntrs)
	}
}

func TestCoalescingReducesCPU(t *testing.T) {
	busy := func(coalesce int) time.Duration {
		r := newRig(ioat.None())
		r.p.CoalesceFrames = coalesce
		r.dst.OnReceive = func(rx *RxChunk) { rx.Free() }
		r.sendChunk(64 * cost.KB)
		r.s.Run()
		return r.dst.CPU.BusyTime()
	}
	if busy(8) >= busy(1) {
		t.Fatal("coalescing did not reduce receive CPU time")
	}
}

func TestSplitHeaderHitsAfterWarmup(t *testing.T) {
	// With split headers the ring stays cache-resident, so after one
	// pass, header accesses hit and per-chunk cost drops below the
	// non-split cold cost.
	costOf := func(feat ioat.Features) time.Duration {
		r := newRig(feat)
		r.dst.OnReceive = func(rx *RxChunk) { rx.Free() }
		// Warm up, measure second batch.
		for i := 0; i < 4; i++ {
			r.sendChunk(64 * cost.KB)
		}
		r.s.Run()
		r.dst.CPU.ResetWindow()
		start := r.dst.CPU.BusyTime()
		for i := 0; i < 4; i++ {
			r.sendChunk(64 * cost.KB)
		}
		r.s.Run()
		return r.dst.CPU.BusyTime() - start
	}
	split := costOf(ioat.Features{SplitHeader: true})
	plain := costOf(ioat.None())
	if split >= plain {
		t.Fatalf("split-header rx cost %v not below non-split %v", split, plain)
	}
}

func TestFullPacketDCAPollutionGrowsWithBacklog(t *testing.T) {
	// When chunks are freed promptly the pool stays small and installs
	// mostly refresh their own lines; when buffers accumulate past the
	// cache size, installs evict valid lines and the penalty shows up.
	run := func(hold bool) time.Duration {
		r := newRig(ioat.DMAOnly())
		var held []*RxChunk
		r.dst.OnReceive = func(rx *RxChunk) {
			if hold {
				held = append(held, rx)
			} else {
				rx.Free()
			}
		}
		for i := 0; i < 64; i++ { // 64 x 64K = 4 MB inflight when held
			r.sendChunk(64 * cost.KB)
		}
		r.s.Run()
		for _, rx := range held {
			rx.Free()
		}
		return r.dst.Evictions
	}
	prompt := run(false)
	held := run(true)
	if held <= prompt {
		t.Fatalf("pollution penalty with backlog (%v) not above prompt free (%v)", held, prompt)
	}
}

func TestTxCostTSO(t *testing.T) {
	r := newRig(ioat.None())
	noTSO := r.dst.TxCost(64 * cost.KB)
	r.p.TSO = true
	withTSO := r.dst.TxCost(64 * cost.KB)
	if withTSO >= noTSO {
		t.Fatalf("TSO tx cost %v not below host segmentation %v", withTSO, noTSO)
	}
}

func TestRxBufSizeCoversJumbo(t *testing.T) {
	p := cost.Default()
	p.MTU = 2048
	if got := rxBufSize(p); got < p.MSS()+p.HeaderBytes {
		t.Fatalf("rx buffer %d too small for jumbo frame", got)
	}
	p.MTU = 9000
	if got := rxBufSize(p); got < p.MSS()+p.HeaderBytes {
		t.Fatalf("rx buffer %d too small for 9000 MTU", got)
	}
}

func TestPoolRecycling(t *testing.T) {
	r := newRig(ioat.None())
	r.dst.OnReceive = func(rx *RxChunk) { rx.Free() }
	for i := 0; i < 50; i++ {
		r.sendChunk(16 * cost.KB)
	}
	r.s.Run()
	if r.dst.PoolLiveBytes() != 0 {
		t.Fatalf("pool leak: %d live bytes", r.dst.PoolLiveBytes())
	}
}
