// Package link models the Ethernet fabric: full-duplex ports with line-
// rate serialization on both the transmit and receive side, and a fixed
// switch/propagation latency. Simulation granularity is the chunk — a
// burst of back-to-back frames belonging to one transport segment group —
// with per-frame wire overheads folded into the chunk's wire size.
package link

import (
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/fault"
	"ioatsim/internal/sim"
	"ioatsim/internal/trace"
)

// Chunk is one burst of frames in flight.
type Chunk struct {
	// Bytes is the transport payload carried.
	Bytes int
	// Frames is how many wire frames the chunk spans.
	Frames int
	// WireBytes is the on-wire size including all per-frame overheads.
	WireBytes int
	// Seq is the transport stream offset of the chunk's first payload
	// byte. The fabric never reads it; the transport's loss-recovery
	// path uses it to detect gaps and duplicates at the receiver.
	Seq int64
	// Meta carries transport-layer context opaquely through the fabric.
	Meta any

	// pool, when non-nil, is where Release returns the chunk; src and
	// dst carry the in-flight endpoints between Send and its delivery
	// event, so delivery needs no per-chunk closure.
	pool *ChunkPool
	src  *Port
	dst  *Port
}

// ChunkPool recycles Chunks through a free list so a steady-state flow
// allocates no chunk per send. A transport owns one pool per stack; the
// receive path calls Release when the payload's kernel buffers are
// freed, which returns the chunk to the pool it came from (chunks cross
// nodes, so the consumer and producer differ).
type ChunkPool struct {
	free []*Chunk
}

// NewChunkPool returns an empty pool.
func NewChunkPool() *ChunkPool { return &ChunkPool{} }

// Get returns a zeroed chunk backed by this pool.
//
//ioat:hotpath
func (cp *ChunkPool) Get() *Chunk {
	if n := len(cp.free); n > 0 {
		c := cp.free[n-1]
		cp.free = cp.free[:n-1]
		return c
	}
	//ioatlint:allow hotpathalloc — pool refill when the free list is empty: Release recycles every chunk, so the steady state reuses
	return &Chunk{pool: cp}
}

// Release returns the chunk to its origin pool. Chunks built without a
// pool (struct literals in tests and custom drivers) are left to the
// garbage collector.
//
//ioat:hotpath
func (c *Chunk) Release() {
	cp := c.pool
	if cp == nil {
		return
	}
	*c = Chunk{pool: cp}
	cp.free = append(cp.free, c)
}

// Port is one full-duplex Ethernet port. The transmit and receive
// directions serialize independently at the port's line rate.
type Port struct {
	S       *sim.Simulator
	Node    string
	Index   int
	RateBps int64
	Prop    time.Duration

	// Deliver is invoked at this port when a chunk has been fully
	// received. The NIC layer installs it.
	Deliver func(c *Chunk)

	// Fault, when non-nil, decides per chunk whether the wire eats the
	// transmission (loss, flap windows). Installed by host construction
	// under a fault plan; nil — the seed configuration — costs one
	// pointer compare per send.
	Fault *fault.LinkFault

	txFree sim.Time
	rxFree sim.Time

	TxBytes     int64 // payload bytes transmitted
	RxBytes     int64 // payload bytes received
	TxWireBytes int64
	RxWireBytes int64

	chk *check.Checker
	obs *trace.Obs
}

// SetChecker puts the port in checked mode: each chunk's payload and
// wire bytes enter the link ledgers when sent and leave them when
// delivered or dropped.
func (p *Port) SetChecker(c *check.Checker) { p.chk = c }

// SetObs attaches the owning node's observability sinks; each chunk then
// records its wire-occupancy span on the port's link track.
func (p *Port) SetObs(o *trace.Obs) { p.obs = o }

// NewPort returns an idle port.
func NewPort(s *sim.Simulator, node string, index int, rateBps int64, prop time.Duration) *Port {
	if rateBps <= 0 {
		panic("link: non-positive rate")
	}
	return &Port{S: s, Node: node, Index: index, RateBps: rateBps, Prop: prop}
}

// serTime returns the serialization time of n wire bytes at the port rate.
func (p *Port) serTime(n int) time.Duration {
	return time.Duration(int64(n) * 8 * int64(time.Second) / p.RateBps)
}

// Send transmits c to dst. The chunk occupies this port's transmit side
// and dst's receive side for its serialization time; dst.Deliver fires
// when the last bit has arrived.
//
//ioat:hotpath
func (p *Port) Send(dst *Port, c *Chunk) {
	if c.WireBytes <= 0 {
		panic("link: empty chunk")
	}
	now := p.S.Now()
	ser := p.serTime(c.WireBytes)
	if p.chk != nil {
		// Every chunk entering the fabric is accounted; the delivery
		// event balances it. WireBytes carries payload plus per-frame
		// overhead, so it can never be smaller than the payload.
		p.chk.Assert(c.Bytes >= 0 && c.WireBytes >= c.Bytes,
			"link", "chunk with %d payload bytes in %d wire bytes", c.Bytes, c.WireBytes)
		p.chk.Assert(c.Frames >= 1,
			"link", "chunk of %d bytes spans %d frames", c.Bytes, c.Frames)
		p.chk.Ledger("link:payload").In(int64(c.Bytes))
		p.chk.Ledger("link:wire").In(int64(c.WireBytes))
	}

	txStart := p.txFree
	if txStart < now {
		txStart = now
	}
	txEnd := txStart.Add(ser)
	p.txFree = txEnd
	p.TxBytes += int64(c.Bytes)
	p.TxWireBytes += int64(c.WireBytes)
	if p.obs != nil {
		// The transmit-side serialization window only: per-port spans
		// stay non-overlapping, which trace viewers require per track.
		p.obs.Span(trace.TidLinkBase+int32(p.Index), trace.SiteLinkChunk, txStart, ser, int64(c.WireBytes))
	}

	if p.Fault != nil && p.Fault.Drop(now, c.Frames, c.Bytes) {
		// The wire eats the chunk: the transmit side still paid its
		// serialization window (the sender cannot know), but nothing
		// arrives. The link ledgers close immediately — the bytes left
		// the fabric — and the fault ledger records where they went, so
		// strict runs stay balanced under loss.
		if p.chk != nil {
			p.chk.Ledger("link:payload").Out(int64(c.Bytes))
			p.chk.Ledger("link:wire").Out(int64(c.WireBytes))
			p.chk.Ledger("fault:link-dropped").In(int64(c.Bytes))
		}
		if p.obs != nil {
			p.obs.Instant(trace.TidLinkBase+int32(p.Index), trace.SiteLinkDrop, int64(c.Bytes))
		}
		c.Release()
		return
	}

	arrive := txEnd.Add(p.Prop)
	deliverAt := arrive
	if earliest := dst.rxFree.Add(dst.serTime(c.WireBytes)); earliest > deliverAt {
		deliverAt = earliest
	}
	dst.rxFree = deliverAt

	c.src, c.dst = p, dst
	p.S.AtArg(deliverAt, deliverChunk, c)
}

// deliverChunk is the pre-bound delivery event: the chunk itself carries
// its endpoints, so the steady-state fabric path schedules without a
// per-chunk closure.
//
//ioat:hotpath
func deliverChunk(a any) {
	c := a.(*Chunk)
	p, dst := c.src, c.dst
	c.src, c.dst = nil, nil
	dst.RxBytes += int64(c.Bytes)
	dst.RxWireBytes += int64(c.WireBytes)
	if p.chk != nil {
		p.chk.Ledger("link:payload").Out(int64(c.Bytes))
		p.chk.Ledger("link:wire").Out(int64(c.WireBytes))
	}
	if dst.Deliver == nil {
		panic("link: chunk delivered to port with no NIC attached")
	}
	dst.Deliver(c)
}
