package tcp

import (
	"strings"
	"testing"
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/cpu"
	"ioatsim/internal/dma"
	"ioatsim/internal/fault"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/nic"
	"ioatsim/internal/sim"
)

// faultNet is a two-node checked topology with a fault plan wired the
// way host construction wires it: link faults on every port, a ring
// bound on every NIC, recovery armed on both stacks.
type faultNet struct {
	chk    *check.Checker
	s      *sim.Simulator
	in     *fault.Injector
	sa, sb *Stack
}

func newFaultNet(feat ioat.Features, p *cost.Params, plan fault.Plan) *faultNet {
	chk := check.New()
	s := sim.New(sim.WithProbe(chk))
	in := fault.NewInjector(plan)
	mk := func(name string) *Stack {
		m := mem.NewModel(p)
		c := cpu.New(s, p)
		e := dma.New(s, p, m)
		nc := nic.New(s, p, c, m, feat, name, 6)
		c.SetFault(in.Node(name))
		nc.Fault = in.NIC(name)
		for i, pt := range nc.Ports {
			pt.Fault = in.Link(name, i)
		}
		st := NewStack(s, p, c, m, e, nc, feat, name)
		setChecker(st, chk)
		st.EnableRecovery(in.Plan())
		return st
	}
	return &faultNet{chk: chk, s: s, in: in, sa: mk("a"), sb: mk("b")}
}

// transfer runs one n-byte stream a->b on port 0 and returns the
// receiver's completion time.
func (fn *faultNet) transfer(t *testing.T, n int) sim.Time {
	t.Helper()
	ca, cb := Pair(fn.sa, fn.sb, 0, 0)
	src := fn.sa.Mem.Space.Alloc(min(n, 64*cost.KB), 0)
	dst := fn.sb.Mem.Space.Alloc(min(n, 64*cost.KB), 0)
	var done sim.Time
	received := false
	transfer(fn.s, ca, cb, src, dst, n, func() {
		done = fn.s.Now()
		received = true
	})
	fn.s.Run()
	if !received {
		t.Fatal("receiver never completed")
	}
	if fn.sa.BytesSent != int64(n) || fn.sb.BytesReceived != int64(n) {
		t.Fatalf("sent=%d received=%d, want %d exactly once", fn.sa.BytesSent, fn.sb.BytesReceived, n)
	}
	if fl := fn.chk.Ledger("tcp:stream").InFlight(); fl != 0 {
		t.Fatalf("%d stream bytes unaccounted", fl)
	}
	if live := fn.sb.NIC.PoolLiveBytes(); live != 0 {
		t.Fatalf("%d bytes of kernel buffers leaked", live)
	}
	fn.chk.Finish()
	if err := fn.chk.Err(); err != nil {
		t.Fatal(err)
	}
	return done
}

// TestZeroPlanInert pins the differential property at the transport
// level: an enabled-but-benign plan must not move delivery times, CPU
// busy time, or byte counts relative to the nil-plan fast path — the
// recovery machinery runs (segments tracked, ACKs flow, timers arm) but
// perturbs nothing.
func TestZeroPlanInert(t *testing.T) {
	const n = 512 * cost.KB
	run := func(withPlan bool) (sim.Time, time.Duration, time.Duration) {
		p := cost.Default()
		var sa, sb *Stack
		var s *sim.Simulator
		if withPlan {
			fn := newFaultNet(ioat.None(), p, fault.Plan{})
			s, sa, sb = fn.s, fn.sa, fn.sb
		} else {
			var a, b *node
			s, a, b = twoNodes(ioat.None(), p)
			sa, sb = a.st, b.st
		}
		ca, cb := Pair(sa, sb, 0, 0)
		src := sa.Mem.Space.Alloc(64*cost.KB, 0)
		dst := sb.Mem.Space.Alloc(64*cost.KB, 0)
		var done sim.Time
		var txBusy, rxBusy time.Duration
		transfer(s, ca, cb, src, dst, n, func() {
			// Sample busy time at the delivery instant, not after Run
			// drains: the zero-plan run keeps (inert) timer events alive
			// past this point, and busy-time accounting elapses queued
			// work as virtual time advances.
			done = s.Now()
			txBusy = sa.CPU.BusyTime()
			rxBusy = sb.CPU.BusyTime()
		})
		s.Run()
		return done, txBusy, rxBusy
	}
	d0, tx0, rx0 := run(false)
	d1, tx1, rx1 := run(true)
	if d0 != d1 {
		t.Errorf("delivery time moved: nil plan %v, zero plan %v", d0, d1)
	}
	if tx0 != tx1 || rx0 != rx1 {
		t.Errorf("CPU busy moved: nil plan tx=%v rx=%v, zero plan tx=%v rx=%v", tx0, rx0, tx1, rx1)
	}
}

// TestFastRetransmit drops exactly one mid-stream chunk; the chunks
// behind it arrive, are discarded as out-of-order, and their duplicate
// ACKs must trigger recovery without waiting out a full RTO (the
// retransmission timer may still fire alongside — fast retransmit just
// has to be part of the story).
func TestFastRetransmit(t *testing.T) {
	fn := newFaultNet(ioat.None(), cost.Default(), fault.Plan{
		DropMask: 1 << 1, MaskBits: 64, // drop only the second chunk offered
		// Duplicate ACKs trail the ~530µs chunk serialization; a
		// conservative RTO keeps the timer out of the race so the test
		// isolates the dup-ack path.
		RTOMin: 20 * time.Millisecond,
	})
	fn.transfer(t, 1*cost.MB)
	if fn.sa.FastRetransmits == 0 {
		t.Errorf("no fast retransmit after %d discards (retx=%d timeouts=%d)",
			fn.sb.RxDiscards, fn.sa.Retransmits, fn.sa.Timeouts)
	}
	if fn.sb.RxDiscards < int64(fn.sa.dupAckThresh) {
		t.Errorf("only %d out-of-order discards, want at least the dup-ack threshold %d",
			fn.sb.RxDiscards, fn.sa.dupAckThresh)
	}
	if fn.sa.Retransmits == 0 || fn.sa.RetransmitBytes == 0 {
		t.Error("drop recovered without any recorded retransmission")
	}
	if got := fn.in.Totals().LinkDroppedChunks; got != 1 {
		t.Errorf("link dropped %d chunks, mask says exactly 1", got)
	}
}

// TestRTOTailDrop drops the final chunk of the stream: nothing follows
// it, so no duplicate ACKs can arrive and only the retransmission timer
// can recover it.
func TestRTOTailDrop(t *testing.T) {
	const n = 256 * cost.KB // 4 chunks; drop the 4th
	fn := newFaultNet(ioat.None(), cost.Default(), fault.Plan{
		DropMask: 1 << 3, MaskBits: 64,
	})
	done := fn.transfer(t, n)
	if fn.sa.Timeouts == 0 {
		t.Errorf("tail drop recovered without an RTO (fastretx=%d)", fn.sa.FastRetransmits)
	}
	if fn.sa.Retransmits == 0 {
		t.Error("no retransmission recorded")
	}
	// Completion must include at least one full RTO of dead air.
	if done < sim.Time(fn.sa.rtoMin) {
		t.Errorf("finished at %v, before a single RTO (%v) could fire", done, fn.sa.rtoMin)
	}
}

// TestRTOBackoffBounded kills the link permanently: retransmission must
// back off exponentially and then abort the run loudly instead of
// spinning forever.
func TestRTOBackoffBounded(t *testing.T) {
	fn := newFaultNet(ioat.None(), cost.Default(), fault.Plan{
		DropMask: 1, MaskBits: 1, // every chunk drops
		MaxRetries: 4,
	})
	ca, _ := Pair(fn.sa, fn.sb, 0, 0)
	src := fn.sa.Mem.Space.Alloc(64*cost.KB, 0)
	sendSeq(fn.s, ca, src, SendOptions{}, []int{64 * cost.KB}, func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("dead fabric did not abort the run")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "retransmission timeouts") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if fn.sa.Timeouts != 5 {
			t.Errorf("aborted after %d timeouts, want MaxRetries+1 = 5", fn.sa.Timeouts)
		}
		// Backoff doubled each round: 1, 2, 4, 8 ms between firings.
		if now := fn.s.Now(); now < sim.Time(15*time.Millisecond) {
			t.Errorf("aborted at %v, before exponential backoff could accumulate", now)
		}
	}()
	fn.s.Run()
}

// TestNICRingOverflow converges three ports on one receiver whose ring
// holds a single chunk's frames: concurrent bursts must overflow, be
// dropped at the NIC (before any protocol work), and be recovered.
func TestNICRingOverflow(t *testing.T) {
	p := cost.Default()
	fn := newFaultNet(ioat.None(), p, fault.Plan{RxRingFrames: p.Frames(p.ChunkMax)})
	const per = 256 * cost.KB
	var streams []struct{ ca, cb *Conn }
	for port := 0; port < 3; port++ {
		ca, cb := Pair(fn.sa, fn.sb, port, port)
		streams = append(streams, struct{ ca, cb *Conn }{ca, cb})
	}
	recvd := 0
	for _, sp := range streams {
		src := fn.sa.Mem.Space.Alloc(64*cost.KB, 0)
		dst := fn.sb.Mem.Space.Alloc(64*cost.KB, 0)
		transfer(fn.s, sp.ca, sp.cb, src, dst, per, func() { recvd++ })
	}
	fn.s.Run()
	if recvd != len(streams) {
		t.Fatalf("%d of %d streams completed", recvd, len(streams))
	}
	tot := fn.in.Totals()
	if tot.NICDroppedChunks == 0 {
		t.Error("one-chunk ring under 3 converging ports never overflowed")
	}
	if fn.sa.Retransmits == 0 {
		t.Error("ring drops recovered without retransmission")
	}
	fn.chk.Finish()
	if err := fn.chk.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowNodeStretchesRun pins the CPU fault: the same transfer on a
// uniformly degraded cluster must finish strictly later and burn
// strictly more simulated CPU.
func TestSlowNodeStretchesRun(t *testing.T) {
	base := newFaultNet(ioat.None(), cost.Default(), fault.Plan{})
	dBase := base.transfer(t, 512*cost.KB)
	busyBase := base.sb.CPU.BusyTime()

	slow := newFaultNet(ioat.None(), cost.Default(), fault.Plan{SlowFactor: 3})
	dSlow := slow.transfer(t, 512*cost.KB)
	busySlow := slow.sb.CPU.BusyTime()
	if slow.in.Totals().SlowNodes != 2 {
		t.Fatalf("SlowFraction 0 with a factor must degrade both nodes, got %d", slow.in.Totals().SlowNodes)
	}
	if dSlow <= dBase {
		t.Errorf("degraded run finished at %v, baseline %v; want strictly later", dSlow, dBase)
	}
	if busySlow <= busyBase {
		t.Errorf("degraded receiver busy %v, baseline %v; want strictly more", busySlow, busyBase)
	}
}

// TestLossyStreamStrict runs a moderately lossy stream under Strict
// checking: every violation would panic immediately, so a clean finish
// is the assertion.
func TestLossyStreamStrict(t *testing.T) {
	fn := newFaultNet(ioat.Full(), cost.Default(), fault.Plan{Seed: 5, LossRate: 0.002})
	fn.chk.Strict = true
	fn.transfer(t, 2*cost.MB)
	if fn.in.Totals().LinkDroppedChunks == 0 {
		t.Skip("seed produced no drops at this rate; raise rate or change seed")
	}
	if fn.sa.Retransmits == 0 {
		t.Error("drops occurred but nothing was retransmitted")
	}
}
