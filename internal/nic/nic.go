// Package nic models the network interface and its receive path: kernel
// receive buffers, interrupt coalescing, per-frame protocol processing
// priced through the cache, transmit segmentation (with or without TSO),
// and the three I/OAT features — split-header delivery, full-packet vs
// header-only direct cache placement, and multiple receive queues.
//
// Granularity is the chunk: a burst of back-to-back frames delivered by
// the link layer as one event, with per-frame costs computed in closed
// form (and through the cache model) inside the chunk.
package nic

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
	"ioatsim/internal/sim"
	"ioatsim/internal/trace"
)

// Flow is what the NIC needs to know about a transport flow: a stable id
// for receive-queue hashing and the address of its connection state, whose
// cache residency the cost model tracks.
type Flow interface {
	FlowID() int
	StateAddr() mem.Addr
}

// RxChunk is one received burst after protocol processing: the payload
// sits in kernel buffers awaiting its copy to user space.
type RxChunk struct {
	Chunk *link.Chunk
	Flow  Flow
	// Bufs holds one kernel buffer per frame; payload fills each up to
	// the MSS. They are returned to the pool by Free.
	Bufs []mem.Buffer
	nic  *NIC
	// Port is the index of the port the chunk arrived on.
	Port int
	// ReadyAt is when softirq processing finished.
	ReadyAt sim.Time
	// arrived is when the last bit hit the wire-side of the port, kept
	// for the softirq-ordering invariant.
	arrived sim.Time
}

// Free returns the chunk's kernel buffers to the NIC's pool and recycles
// the chunk descriptors. The receive path calls this when the owning recv
// call returns (the skbs stay on the socket queue until then, as in the
// kernel's net_dma).
//
//ioat:hotpath
func (rx *RxChunk) Free() {
	n := rx.nic
	for _, b := range rx.Bufs {
		n.rxPool.Put(b)
	}
	rx.Bufs = rx.Bufs[:0]
	rx.Chunk.Release()
	rx.Chunk = nil
	rx.Flow = nil
	n.rxFree = append(n.rxFree, rx)
}

// NIC is one node's network interface: a set of ports sharing the node's
// receive resources.
type NIC struct {
	S    *sim.Simulator
	P    *cost.Params
	CPU  *cpu.CPU
	Mem  *mem.Model
	DMA  *dma.Engine
	Feat ioat.Features
	Node string

	Ports []*link.Port

	rxPool       *mem.Pool
	hdrRing      mem.Buffer
	hdrOff       int
	hdrSlotBytes int        // bytes consumed per split-header ring slot
	rxFree       []*RxChunk // recycled chunk descriptors (with their Bufs backing)

	// OnReceive is invoked (in event context, after softirq processing)
	// for every received chunk. The transport installs it.
	OnReceive func(rx *RxChunk)

	// Fault, when non-nil, bounds the receive ring: chunks that do not
	// fit are dropped before any protocol work is priced. Installed by
	// host construction under a fault plan; nil is unbounded (the seed
	// behaviour) and costs one pointer compare per chunk.
	Fault *fault.NICFault

	// Stats.
	RxChunks   int64
	RxFrames   int64
	Interrupts int64
	Evictions  time.Duration // total pollution penalty charged

	chk *check.Checker
	obs *trace.Obs
}

// SetChecker puts the NIC and all its ports in checked mode: interrupt
// coalescing, receive-buffer placement and the rx-byte ledger are
// asserted per chunk.
func (n *NIC) SetChecker(c *check.Checker) {
	n.chk = c
	for _, p := range n.Ports {
		p.SetChecker(c)
	}
}

// SetObs attaches the node's observability sinks to the NIC and all its
// ports: chunk arrivals become instants on the nic track and softirq
// work is attributed per receive core.
func (n *NIC) SetObs(o *trace.Obs) {
	n.obs = o
	for _, p := range n.Ports {
		p.SetObs(o)
	}
}

// New returns a NIC with nports ports attached to the node.
func New(s *sim.Simulator, p *cost.Params, c *cpu.CPU, m *mem.Model,
	e *dma.Engine, feat ioat.Features, node string, nports int) *NIC {
	n := &NIC{S: s, P: p, CPU: c, Mem: m, DMA: e, Feat: feat, Node: node}
	n.rxPool = mem.NewPool(m.Space, rxBufSize(p))
	n.hdrRing = m.Space.Alloc(p.HeaderRingBytes, 0)
	n.hdrSlotBytes = p.HeaderLines * p.CacheLine
	for i := 0; i < nports; i++ {
		i := i
		port := link.NewPort(s, node, i, p.PortRateBps, p.PropDelay)
		port.Deliver = func(c *link.Chunk) { n.deliver(i, c) }
		n.Ports = append(n.Ports, port)
	}
	return n
}

// rxBufSize picks a kernel receive-buffer size that holds one frame.
func rxBufSize(p *cost.Params) int {
	need := p.MSS() + p.HeaderBytes
	size := p.RxBufSize
	if size <= 0 {
		// Doubling a non-positive size would loop forever; Params.Validate
		// rejects this upstream, so reaching it means a runner skipped
		// validation.
		panic(fmt.Sprintf("nic: non-positive RxBufSize %d", size))
	}
	for size < need {
		size *= 2
	}
	return size
}

// Port returns port i.
func (n *NIC) Port(i int) *link.Port { return n.Ports[i] }

// RxCore returns the core that processes receive interrupts for the
// given flow. Without multiple receive queues, all protocol processing
// lands on the single CPU that handles the controllers' interrupts
// (paper §2.2.3: "even on multi-CPU systems, processing occurs on a
// single CPU"); with them, flows spread across all cores.
//
//ioat:hotpath
func (n *NIC) RxCore(port int, f Flow) int {
	if n.Feat.MultiQueue {
		return f.FlowID() % n.CPU.NumCores()
	}
	return 0
}

// hdrSlot returns the next split-header ring slot (2 lines per frame).
//
//ioat:hotpath
func (n *NIC) hdrSlot() mem.Addr {
	if n.hdrOff+n.hdrSlotBytes > n.hdrRing.Size {
		n.hdrOff = 0
	}
	a := n.hdrRing.Addr + mem.Addr(n.hdrOff)
	n.hdrOff += n.hdrSlotBytes
	return a
}

// deliver is the link-layer entry point: it prices the interrupt and
// per-frame protocol work of the chunk, runs it on the flow's receive
// core, and then hands the chunk to the transport.
//
//ioat:hotpath
func (n *NIC) deliver(port int, c *link.Chunk) {
	flow, ok := c.Meta.(Flow)
	if !ok {
		panic("nic: chunk without transport flow metadata")
	}
	p := n.P
	frames := c.Frames
	if n.Fault != nil && !n.Fault.Admit(frames, c.Bytes) {
		// Receive-ring overflow: the frames arrived but had no
		// descriptors to land in. The chunk vanishes before any
		// interrupt or protocol work; the transport's retransmission
		// path recovers the bytes.
		if n.chk != nil {
			n.chk.Ledger("fault:nic-dropped").In(int64(c.Bytes))
		}
		if n.obs != nil {
			n.obs.Instant(trace.TidNIC, trace.SiteNICDrop, int64(c.Bytes))
		}
		c.Release()
		return
	}
	n.RxChunks++
	n.RxFrames += int64(frames)

	// Interrupts: the driver coalesces up to CoalesceFrames back-to-back
	// frames per interrupt.
	intrs := (frames + p.CoalesceFrames - 1) / p.CoalesceFrames
	if n.chk != nil {
		// Exactly enough interrupts to cover the burst, never more.
		n.chk.Assert(intrs*p.CoalesceFrames >= frames && (intrs-1)*p.CoalesceFrames < frames,
			"nic", "%d interrupts for %d frames at budget %d", intrs, frames, p.CoalesceFrames)
		n.chk.Assert(p.Frames(c.Bytes) == frames,
			"nic", "chunk of %d bytes arrived in %d frames, segmentation says %d",
			c.Bytes, frames, p.Frames(c.Bytes))
	}
	n.Interrupts += int64(intrs)
	work := time.Duration(intrs) * p.Intr

	// Per-frame driver + protocol work.
	work += time.Duration(frames) * (p.FrameProc + p.BufMgmt)

	// Buffer placement and header access, frame by frame, through the
	// cache model. The chunk descriptor and its buffer slice come from
	// the NIC's free list, so a steady-state flow allocates nothing here.
	var rx *RxChunk
	if nf := len(n.rxFree); nf > 0 {
		rx = n.rxFree[nf-1]
		n.rxFree = n.rxFree[:nf-1]
	} else {
		//ioatlint:allow hotpathalloc — rx-descriptor free-list refill: Free recycles every descriptor
		rx = &RxChunk{nic: n}
	}
	bufs := rx.Bufs[:0]
	remaining := c.Bytes
	mss := p.MSS()
	stateAddr := flow.StateAddr()
	for i := 0; i < frames; i++ {
		payload := mss
		if payload > remaining {
			payload = remaining
		}
		remaining -= payload
		b := n.rxPool.Get()
		bufs = append(bufs, b)

		switch {
		case n.Feat.SplitHeader:
			// Header -> dedicated ring, placed directly in cache;
			// payload -> kernel buffer, memory only.
			n.Mem.DMAWrite(b.Addr, payload)
			slot := n.hdrSlot()
			n.Mem.InstallHeader(slot, p.HeaderBytes)
			work += n.Mem.RandomCost(slot, p.HeaderLines)
		case n.Feat.DMACopy:
			// I/OAT platform without split headers: the whole frame is
			// placed in the cache (full-packet DCA); the valid lines it
			// displaces are the pollution the paper describes.
			pen := n.Mem.InstallPacket(b.Addr, payload+p.HeaderBytes)
			n.Evictions += pen
			work += pen
			work += n.Mem.RandomCost(b.Addr, p.HeaderLines)
		default:
			// Traditional path: NIC DMA to memory, headers read from
			// DRAM (the cached copy, if any, was just invalidated).
			n.Mem.DMAWrite(b.Addr, payload+p.HeaderBytes)
			work += n.Mem.RandomCost(b.Addr, p.HeaderLines)
		}

		// Connection-state accesses for this frame.
		work += n.Mem.RandomCost(stateAddr, p.ConnStateLines)
	}

	if n.chk != nil {
		// The per-frame loop must distribute the chunk's payload exactly
		// once across its kernel buffers.
		n.chk.Assert(remaining == 0,
			"nic", "chunk of %d bytes left %d bytes unplaced after %d frames",
			c.Bytes, remaining, frames)
		n.chk.Assert(n.rxPool.Live <= n.rxPool.Total,
			"nic", "pool has %d live buffers but only %d were ever created",
			n.rxPool.Live, n.rxPool.Total)
		n.chk.Ledger("nic:rx-bytes").In(int64(c.Bytes))
	}

	rx.Chunk, rx.Flow, rx.Bufs, rx.Port, rx.arrived = c, flow, bufs, port, n.S.Now()
	if n.obs != nil {
		n.obs.Instant(trace.TidNIC, trace.SiteNICRx, int64(c.Bytes))
	}
	n.CPU.SubmitOnArgSite(n.RxCore(port, flow), trace.SiteSoftirq, work, rxReady, rx)
}

// rxReady is the pre-bound softirq-completion event: it fires on the
// receive core when the chunk's protocol work has drained, and hands the
// chunk to the transport. Package-level so scheduling it costs no closure.
//
//ioat:hotpath
func rxReady(a any) {
	rx := a.(*RxChunk)
	n := rx.nic
	rx.ReadyAt = n.S.Now()
	if n.Fault != nil {
		n.Fault.Drain(rx.Chunk.Frames)
	}
	if n.chk != nil {
		// Softirq completion cannot precede frame arrival.
		n.chk.Assert(rx.ReadyAt >= rx.arrived,
			"nic", "chunk ready at %v before arrival at %v", rx.ReadyAt, rx.arrived)
		n.chk.Ledger("nic:rx-bytes").Out(int64(rx.Chunk.Bytes))
	}
	if n.OnReceive == nil {
		panic("nic: no transport handler installed")
	}
	n.OnReceive(rx)
}

// TxComplete charges the transmit-completion work (interrupt, descriptor
// reclaim, skb free) for n payload bytes sent on the given port to the
// interrupt core. It runs asynchronously to the sending thread.
//
//ioat:hotpath
func (n *NIC) TxComplete(port int, f Flow, bytes int) {
	frames := n.P.Frames(bytes)
	n.CPU.SubmitOnSite(n.RxCore(port, f), trace.SiteTxComplete,
		time.Duration(frames)*n.P.TxCompleteFrame, nil)
}

// TxCost returns the sender-side CPU cost of segmenting and queueing n
// payload bytes: per-frame work on the host unless TSO lets the NIC
// segment.
//
//ioat:hotpath
func (n *NIC) TxCost(bytes int) time.Duration {
	frames := n.P.Frames(bytes)
	per := n.P.TxFrame
	if n.P.TSO {
		per = n.P.TSOFrame
	}
	return time.Duration(frames) * per
}

// PoolLiveBytes reports the kernel receive buffers currently in use —
// the receive-path working set whose size drives cache behaviour.
//
//ioatlint:allow deadapi — read by the root integration test and internal/tcp's transfer and fuzz tests
func (n *NIC) PoolLiveBytes() int {
	return n.rxPool.Live * n.rxPool.BufSize()
}
