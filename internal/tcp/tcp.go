// Package tcp models a reliable, in-order byte-stream transport over the
// simulated fabric, with the paper's sender- and receiver-side CPU cost
// structure:
//
//   - sender: syscall per socket-buffer write, user-to-kernel copy (unless
//     sendfile-style zero copy), per-frame segmentation (unless TSO), and
//     ACK processing;
//   - receiver: interrupts + per-frame protocol work (priced by the NIC
//     through the cache model), then a kernel-to-user copy performed
//     either by the CPU (through the cache) or by the I/OAT engine
//     (startup cost only, overlapped).
//
// Both sides are implemented once, by the Sender and Receiver state
// machines (async.go), each driven by a sim.Task. Connection setup is
// continuation-passing too: Dial and the listener's accept loop (Serve).
//
// Flow control is credit-based with a window of one socket buffer. The
// fabric is lossless by default (the paper's testbed is a switched LAN
// measured in steady state) and the transport then runs a no-retransmit
// fast path; under a fault plan (internal/fault) each stack additionally
// arms a minimal loss-recovery machine — per-connection retransmission
// queue, cumulative ACKs, RTO with exponential backoff and bounded
// retries, and duplicate-ACK fast retransmit (see recovery.go).
package tcp

import (
	"fmt"
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/cpu"
	"ioatsim/internal/dma"
	"ioatsim/internal/fault"
	"ioatsim/internal/ioat"
	"ioatsim/internal/link"
	"ioatsim/internal/mem"
	"ioatsim/internal/metrics"
	"ioatsim/internal/nic"
	"ioatsim/internal/sim"
	"ioatsim/internal/trace"
)

// Stack is one node's transport instance.
type Stack struct {
	S    *sim.Simulator
	P    *cost.Params
	CPU  *cpu.CPU
	Mem  *mem.Model
	DMA  *dma.Engine
	NIC  *nic.NIC
	Feat ioat.Features
	Name string

	listeners map[string]*Listener
	txPool    *mem.Pool
	nextFlow  int

	// Free lists keep the steady-state packet path allocation-free: link
	// chunks, pending-queue records and credit events are all recycled.
	chunkPool  *link.ChunkPool
	pendFree   []*pending
	creditFree []*creditEv

	// Loss recovery (recovery.go). fp == nil is the lossless fabric and
	// gates every recovery branch with one pointer compare; EnableRecovery
	// resolves the plan's RTO/retry knobs into the derived fields.
	fp           *fault.Plan
	rtoMin       time.Duration
	rtoMax       time.Duration
	dupAckThresh int
	maxRetries   int // negative = unlimited
	segFree      []*txSeg
	ackFree      []*ackEv
	conns        []*Conn

	// Stats.
	BytesSent     int64
	BytesReceived int64

	// Recovery stats (all zero under a nil or benign plan).
	Retransmits      int64 // segment groups retransmitted
	RetransmitBytes  int64
	FastRetransmits  int64 // dup-ack-triggered recovery rounds
	Timeouts         int64 // RTO firings
	RxDiscards       int64 // out-of-order/duplicate chunks discarded
	RxDiscardBytes   int64
	AcceptedBytes    int64 // in-order bytes accepted into the stream
	DeliveredUpBytes int64 // everything the NIC handed up (accepted + discarded)

	chk *check.Checker
	obs *trace.Obs

	// Optional metrics instruments (nil without a registry): the summed
	// unconsumed receive backlog across this stack's connections, and the
	// distribution of transmitted segment-group sizes.
	bkGauge   *metrics.TimeWeighted
	segHist   *metrics.Histogram
	rxBacklog int64
}

// SetChecker puts the stack in checked mode: window, backlog and
// stream-ledger invariants are asserted as segments move. Framed
// connections over the stack (msg.Wrap) take the same checker.
func (st *Stack) SetChecker(c *check.Checker) { st.chk = c }

// Checker returns the stack's checker, nil when it runs unchecked.
func (st *Stack) Checker() *check.Checker { return st.chk }

// SetObs attaches the node's observability sinks: segment hand-offs and
// deliveries become instants on the tcp track, and the transport's CPU
// work is attributed per cost-model site.
func (st *Stack) SetObs(o *trace.Obs) { st.obs = o }

// SetMetrics attaches the stack's push-style instruments (either may be
// nil). Host registration calls this once per node when a registry is
// installed.
func (st *Stack) SetMetrics(backlog *metrics.TimeWeighted, seg *metrics.Histogram) {
	st.bkGauge = backlog
	st.segHist = seg
}

// noteBacklog tracks the stack-wide unconsumed receive backlog in the
// time-weighted gauge. Called only when the gauge is installed.
func (st *Stack) noteBacklog(d int64) {
	st.rxBacklog += d
	st.bkGauge.Set(st.S.Now(), float64(st.rxBacklog))
}

// NewStack wires a transport onto the node's NIC and installs the receive
// handler.
func NewStack(s *sim.Simulator, p *cost.Params, c *cpu.CPU, m *mem.Model,
	e *dma.Engine, n *nic.NIC, feat ioat.Features, name string) *Stack {
	st := &Stack{
		S: s, P: p, CPU: c, Mem: m, DMA: e, NIC: n, Feat: feat, Name: name,
		listeners: make(map[string]*Listener),
		txPool:    mem.NewPool(m.Space, p.ChunkMax),
		chunkPool: link.NewChunkPool(),
	}
	n.OnReceive = st.onReceive
	return st
}

// Listener accepts inbound connections for one named service.
type Listener struct {
	stack   *Stack
	service string
	// backlog holds the server endpoints whose handshake has completed
	// and that the accept loop has not taken yet; waiter is the accept
	// loop's task while it waits on an empty backlog.
	backlog []*Conn
	waiter  *sim.Task
}

// Listen registers a service name on this stack.
func (st *Stack) Listen(service string) *Listener {
	if _, dup := st.listeners[service]; dup {
		panic(fmt.Sprintf("tcp: duplicate listener %q on %s", service, st.Name))
	}
	l := &Listener{stack: st, service: service}
	st.listeners[service] = l
	return l
}

// Serve starts the listener's accept loop on a new task named name (one
// start event). Each accept charges the accept syscall, waits for a
// connection, and charges the context switch back to the accepting
// thread; handle then runs with the accept index and the server-side
// endpoint, on the loop's task, before the next accept begins. A
// listener has at most one accept loop.
func (l *Listener) Serve(name string, handle func(i int, c *Conn)) {
	a := &acceptLoop{l: l, task: l.stack.S.NewTask(name), handle: handle}
	a.stepTake = a.take
	a.stepHand = a.hand
	a.task.Start(a.accept)
}

// acceptLoop is a listener's accept loop; its continuations are bound
// once in Serve.
type acceptLoop struct {
	l      *Listener
	task   *sim.Task
	handle func(int, *Conn)
	n      int   // connections accepted so far
	conn   *Conn // the connection being accepted

	stepTake func()
	stepHand func()
}

// accept charges the accept syscall, then takes a connection.
func (a *acceptLoop) accept() {
	st := a.l.stack
	if st.CPU.ExecTask(a.task, a.stepTake, st.P.Syscall) {
		return
	}
	a.take()
}

// take pops the oldest queued connection and charges the switch back to
// the accepting thread, or parks the loop until Dial queues one.
func (a *acceptLoop) take() {
	l := a.l
	if len(l.backlog) == 0 {
		if l.waiter != nil {
			panic("tcp: second accept loop on one listener")
		}
		l.waiter = a.task
		a.task.OnWake(a.stepTake)
		return
	}
	a.conn = l.backlog[0]
	l.backlog = l.backlog[1:]
	st := l.stack
	if st.CPU.ExecTask(a.task, a.stepHand, st.P.ContextSwitch) {
		return
	}
	a.hand()
}

// hand gives the accepted connection to the handler and accepts the
// next one.
func (a *acceptLoop) hand() {
	c := a.conn
	a.conn = nil
	a.handle(a.n, c)
	a.n++
	a.accept()
}

// enqueue adds a connection whose handshake has completed to the
// backlog and wakes a waiting accept loop (one event).
func (l *Listener) enqueue(c *Conn) {
	l.backlog = append(l.backlog, c)
	if w := l.waiter; w != nil {
		l.waiter = nil
		w.Wake()
	}
}

// pending is one received chunk queued on a connection, partially
// consumable. Kernel buffers are freed when the owning recv call returns.
type pending struct {
	rx  *nic.RxChunk
	off int // consumed payload bytes
	dma *sim.Completion
}

func (pd *pending) remaining() int { return pd.rx.Chunk.Bytes - pd.off }

// Conn is one endpoint of an established connection.
type Conn struct {
	stack *Stack
	peer  *Conn

	flowID    int
	state     mem.Buffer
	localPort int
	peerPort  int
	userData  any

	// Receive side. rxq is consumed from rxqHead (a head index instead of
	// re-slicing keeps the backing array reusable); doneScratch is the
	// per-recv retired-chunk list, reusable because Recv is never
	// concurrent on one connection. rxWaiter is the receiving task parked
	// on an empty queue.
	rxq         []*pending
	rxqHead     int
	rxAvail     int
	rxWaiter    *sim.Task
	posted      bool // a recv is posted (enables eager DMA submit)
	doneScratch []*pending

	// Transmit side (flow control): txWaiter is the sending task parked
	// on a closed window.
	window   int
	inflight int
	txWaiter *sim.Task

	// Loss recovery (recovery.go); all idle when the stack has no fault
	// plan. sndUna..sndNxt is the unacked stream range, tracked segment
	// by segment in rtxq (consumed from rtxHead like rxq); rcvNxt is the
	// next in-order stream offset this endpoint accepts.
	sndUna  int64
	sndNxt  int64
	rcvNxt  int64
	rtxq    []*txSeg
	rtxHead int
	dupAcks int
	retries int // consecutive RTOs without cumulative-ack progress

	rto          time.Duration
	srtt         time.Duration
	rttvar       time.Duration
	rtoScheduled bool
	rtoDeadline  sim.Time
}

// Peer returns the other endpoint of the connection.
func (c *Conn) Peer() *Conn { return c.peer }

// Stack returns the owning transport stack.
func (c *Conn) Stack() *Stack { return c.stack }

// UserData carries a higher layer's per-endpoint state (e.g. the framed
// message wrapper).
func (c *Conn) UserData() any { return c.userData }

// SetUserData attaches higher-layer state to the endpoint.
func (c *Conn) SetUserData(v any) { c.userData = v }

// FlowID implements nic.Flow.
func (c *Conn) FlowID() int { return c.flowID }

// StateAddr implements nic.Flow.
func (c *Conn) StateAddr() mem.Addr { return c.state.Addr }

// newConn builds one endpoint on st using local port lp, speaking to
// remote port rp.
func (st *Stack) newConn(lp, rp int) *Conn {
	st.nextFlow++
	c := &Conn{
		stack:     st,
		flowID:    st.nextFlow,
		state:     st.Mem.Space.Alloc(st.P.ConnStateLines*st.P.CacheLine, 0),
		localPort: lp,
		peerPort:  rp,
		window:    st.P.SockBuf,
	}
	if st.fp != nil {
		st.conns = append(st.conns, c)
	}
	return c
}

// Dial establishes a connection from this stack to the named service on
// the remote stack, on behalf of task t, using localPort on this node and
// remotePort on the remote node. It charges the connection-setup syscall
// and one round trip, hands the server endpoint to the remote listener's
// backlog once the remote syscall completes, and calls done with the
// client endpoint.
func (st *Stack) Dial(t *sim.Task, remote *Stack, service string, localPort, remotePort int, done func(*Conn)) {
	l, ok := remote.listeners[service]
	if !ok {
		panic(fmt.Sprintf("tcp: no listener %q on %s", service, remote.Name))
	}
	cl := st.newConn(localPort, remotePort)
	sv := remote.newConn(remotePort, localPort)
	cl.peer, sv.peer = sv, cl

	established := func() {
		remote.CPU.Submit(remote.P.Syscall, func() { l.enqueue(sv) })
		done(cl)
	}
	st.CPU.ExecThen(t, st.P.Syscall, func() {
		// SYN + SYN/ACK round trip.
		t.OnWake(established)
		t.WakeAfter(2 * st.P.PropDelay)
	})
}

// Pair establishes a connection without the handshake costs — a helper
// for tests and for pre-built topologies.
func Pair(a, b *Stack, portA, portB int) (*Conn, *Conn) {
	ca := a.newConn(portA, portB)
	cb := b.newConn(portB, portA)
	ca.peer, cb.peer = cb, ca
	return ca, cb
}

// SendOptions modify one Send call.
type SendOptions struct {
	// ZeroCopy skips the user-to-kernel copy (the sendfile() path: the
	// kernel transmits straight from pinned page-cache pages).
	ZeroCopy bool
}

// onReceive is the NIC handler: queue the chunk on its connection, start
// the engine copy eagerly if a recv is posted, and wake the reader.
func (st *Stack) onReceive(rx *nic.RxChunk) {
	c, ok := rx.Flow.(*Conn)
	if !ok {
		panic("tcp: chunk for foreign flow")
	}
	if st.fp != nil && !st.acceptChunk(c, rx) {
		return
	}
	var pd *pending
	if k := len(st.pendFree); k > 0 {
		pd = st.pendFree[k-1]
		st.pendFree = st.pendFree[:k-1]
		pd.rx = rx
	} else {
		pd = &pending{rx: rx}
	}
	if st.Feat.DMACopy && c.posted {
		st.submitDMA(c, pd)
	}
	if c.rxqHead > 0 && len(c.rxq) == cap(c.rxq) {
		// Compact the consumed prefix instead of growing the backing array.
		k := copy(c.rxq, c.rxq[c.rxqHead:])
		c.rxq = c.rxq[:k]
		c.rxqHead = 0
	}
	c.rxq = append(c.rxq, pd)
	c.rxAvail += rx.Chunk.Bytes
	if st.chk != nil {
		// The stream ledger closes here: every byte the receiver queues
		// was sent exactly once. A duplicate or fabricated chunk trips
		// the conservation law immediately.
		st.chk.Ledger("tcp:stream").Out(int64(rx.Chunk.Bytes))
		st.chk.Assert(c.rxAvail >= 0, "tcp", "%s negative receive backlog %d", st.Name, c.rxAvail)
	}
	st.BytesReceived += int64(rx.Chunk.Bytes)
	if st.obs != nil {
		st.obs.Instant(trace.TidTCP, trace.SiteTCPDeliver, int64(rx.Chunk.Bytes))
	}
	if st.bkGauge != nil {
		st.noteBacklog(int64(rx.Chunk.Bytes))
	}
	if w := c.rxWaiter; w != nil {
		c.rxWaiter = nil
		w.Wake()
	}
}

// submitDMA hands a whole chunk's payload to the copy engine from
// softirq context, charging the per-frame submit cost to the rx core.
func (st *Stack) submitDMA(c *Conn, pd *pending) {
	submit := time.Duration(pd.rx.Chunk.Frames) * st.P.DMAFrameSubmit
	st.CPU.SubmitOnSite(st.NIC.RxCore(pd.rx.Port, c), trace.SiteDMASubmit, submit, nil)
	pd.startDMA(st)
}

// startDMA starts the engine copy of the chunk's payload. Destination:
// the posted user buffer region; address identity only matters for
// cache bookkeeping (the engine invalidates it).
//
//ioat:hotpath
func (pd *pending) startDMA(st *Stack) {
	pd.dma = st.DMA.Submit(pd.rx.Bufs[0].Addr, 0, pd.rx.Chunk.Bytes)
}

// copyCost prices the CPU copy of m bytes from the chunk's kernel buffers
// (starting at the chunk's consumed offset) into dst+dstOff, through the
// cache.
func (c *Conn) copyCost(pd *pending, m int, dst mem.Buffer, dstOff int) time.Duration {
	st := c.stack
	mss := st.P.MSS()
	var total time.Duration
	remaining := m
	pos := pd.off
	for remaining > 0 {
		frame := pos / mss
		frameOff := pos % mss
		seg := mss - frameOff
		if seg > remaining {
			seg = remaining
		}
		// Every consumable offset maps inside the chunk's buffer list:
		// pos < Chunk.Bytes and the NIC allocated ceil(Bytes/MSS) buffers,
		// so frame = pos/MSS is always in range. A clamp here would paper
		// over a segmentation bug; fail loudly instead.
		if st.chk != nil {
			st.chk.Assert(frame < len(pd.rx.Bufs),
				"tcp", "%s copy at offset %d of a %d-byte chunk addresses frame %d, chunk has %d buffers",
				st.Name, pos, pd.rx.Chunk.Bytes, frame, len(pd.rx.Bufs))
		}
		src := pd.rx.Bufs[frame].Addr + mem.Addr(frameOff)
		dOff := 0
		if dst.Size > seg {
			dOff = dstOff % (dst.Size - seg + 1)
		}
		total += st.Mem.CopyCost(src, dst.Addr+mem.Addr(dOff), seg)
		pos += seg
		dstOff += seg
		remaining -= seg
	}
	return total
}

// creditEv is one in-flight window-credit record, pooled on the receiving
// stack so the per-chunk ACK path schedules without a closure.
type creditEv struct {
	conn *Conn // receiving endpoint; the credit lands on its peer
	m    int
	acks int
}

// credit returns m bytes of window to the sender after the ACK delay and
// charges the sender's ACK processing (one delayed ACK per two frames).
//
//ioat:hotpath
func (c *Conn) credit(m int) {
	st := c.stack
	var ev *creditEv
	if k := len(st.creditFree); k > 0 {
		ev = st.creditFree[k-1]
		st.creditFree = st.creditFree[:k-1]
	} else {
		//ioatlint:allow hotpathalloc — credit-event free-list refill: applyCredit recycles every event
		ev = &creditEv{}
	}
	ev.conn, ev.m, ev.acks = c, m, (st.P.Frames(m)+1)/2
	st.S.ScheduleArg(st.P.PropDelay, applyCredit, ev)
}

// applyCredit is the pre-bound ACK-arrival event on the sender side.
func applyCredit(a any) {
	ev := a.(*creditEv)
	c := ev.conn
	peer := c.peer
	m := ev.m
	peer.stack.CPU.SubmitSite(trace.SiteAckProc, time.Duration(ev.acks)*peer.stack.P.AckProc, nil)
	peer.inflight -= m
	if peer.inflight < 0 {
		panic("tcp: negative inflight")
	}
	if w := peer.txWaiter; w != nil && peer.inflight < peer.window {
		peer.txWaiter = nil
		w.Wake()
	}
	st := c.stack
	ev.conn = nil
	st.creditFree = append(st.creditFree, ev)
}
