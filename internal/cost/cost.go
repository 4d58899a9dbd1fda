// Package cost centralizes every calibrated constant of the simulation's
// cost model. The anchors are the paper's Testbed 1 (dual-core dual Xeon
// 3.46 GHz, 2 MB L2, Intel PRO/1000 ports) and the TCP/IP packet-cost
// literature the paper cites (Clark et al.; Makineni & Iyer, HPCA-10;
// Regnier et al., IEEE Computer Nov'04). Constants were tuned so that the
// micro-benchmark endpoints of Fig. 3a and Fig. 6 match the paper; all
// other figures are left to emerge from the model.
package cost

import (
	"errors"
	"fmt"
	"time"
)

// Byte-size units.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// MaxCacheWays is the highest associativity mem.Cache models: it keeps a
// set's metadata one byte or one 8-bit row per way in 64-bit words.
const MaxCacheWays = 8

// ErrCacheWays is the error Validate wraps when CacheWays exceeds
// MaxCacheWays.
var ErrCacheWays = errors.New("cache associativity above the 8-way maximum")

// Params is the complete tunable cost model. Experiments copy Default()
// and adjust (socket buffer, MTU, TSO, coalescing) per scenario.
type Params struct {
	// ---- CPU & scheduling ----

	// Cores is the number of cores per node (dual-core dual Xeon).
	Cores int
	// ContextSwitch is charged each time a blocked thread is woken.
	ContextSwitch time.Duration
	// CSIndirect is the additional per-wake cost paid for every full
	// multiple of oversubscription (runnable threads beyond the core
	// count): cold caches and scheduler queueing make context switches
	// far more expensive on a loaded machine. This is what limits how
	// many concurrent threads a server sustains (paper §5.2.3).
	CSIndirect time.Duration
	// Syscall is the fixed kernel-entry cost of send/recv/accept.
	Syscall time.Duration

	// ---- Memory hierarchy ----

	// CacheSize/CacheLine/CacheWays describe the node's L2 (2 MB, 64 B,
	// 8-way), the cache whose pollution the split-header feature avoids.
	// CacheWays is at most MaxCacheWays.
	CacheSize int
	CacheLine int
	CacheWays int
	// StreamHit/StreamMiss price one cache-line access during a bulk
	// (hardware-prefetched) copy: a 64 KB in-cache memcpy lands near
	// 8 GB/s, an out-of-cache one near 1.5 GB/s, matching Fig. 6.
	StreamHit  time.Duration
	StreamMiss time.Duration
	// RandHit/RandMiss price one dependent (non-streamed) line access,
	// e.g. protocol header and connection-state reads.
	RandHit  time.Duration
	RandMiss time.Duration

	// ---- I/OAT DMA copy engine ----

	// DMABytesPerSec is the engine's copy bandwidth (~2.6 GB/s puts the
	// CPU-copy crossover at 8 KB as in Fig. 6).
	DMABytesPerSec int64
	// DMAStartup is the CPU cost to set up one transfer (descriptor
	// write + doorbell).
	DMAStartup time.Duration
	// DMAPerPage is the CPU cost per 4 KB page of a transfer: physical
	// pages are discontiguous, so each page needs its own descriptor
	// (paper §2.2.2).
	DMAPerPage time.Duration
	// PinPerPage is the CPU cost to pin one user page before the engine
	// may touch it (paper §7's caveat).
	PinPerPage time.Duration
	// DMAFrameSubmit is the per-frame CPU cost of handing one received
	// frame's payload to the copy engine (the net_dma per-skb submit).
	DMAFrameSubmit time.Duration
	// PageSize is the virtual-memory page size.
	PageSize int

	// ---- NIC & per-frame protocol costs ----

	// FrameWireOverhead is the on-wire overhead of one frame: preamble,
	// Ethernet header+FCS, inter-frame gap, IP and TCP headers.
	FrameWireOverhead int
	// HeaderBytes is the in-memory protocol header size per frame.
	HeaderBytes int
	// Intr is the cost of taking one receive interrupt.
	Intr time.Duration
	// CoalesceFrames is how many back-to-back frames one interrupt
	// covers (driver default; the Case-5 optimization raises it).
	CoalesceFrames int
	// FrameProc is the fixed per-frame driver + TCP/IP processing cost,
	// excluding the header-memory accesses priced through the cache.
	FrameProc time.Duration
	// HeaderLines is the number of header cache lines touched per frame.
	HeaderLines int
	// ConnStateLines is the number of connection-state cache lines
	// touched per frame.
	ConnStateLines int
	// BufMgmt is the per-frame kernel buffer alloc/free cost.
	BufMgmt time.Duration
	// AckProc is the sender-side cost of processing one delayed ACK
	// (the receiver acknowledges every second frame).
	AckProc time.Duration
	// TxFrame is the per-frame sender cost (segmentation + driver) when
	// the host CPU segments.
	TxFrame time.Duration
	// TSOFrame is the residual per-frame sender cost when the NIC
	// segments (TSO enabled).
	TSOFrame time.Duration
	// TxCompleteFrame is the per-frame transmit-completion cost (IRQ +
	// skb free), charged to the interrupt core.
	TxCompleteFrame time.Duration
	// RxBufSize is the size of one kernel receive buffer (slab object).
	RxBufSize int
	// HeaderRingBytes is the split-header ring size: small enough to
	// stay cache-resident, which is the point of the feature.
	HeaderRingBytes int
	// EvictPenalty is the per-line cost charged to the receive path when
	// a full-packet direct-cache placement (I/OAT without split headers)
	// evicts a valid line: the displaced line's writeback plus its
	// owner's eventual re-fetch. This is the "cache pollution" of the
	// paper's §2.2.1, priced per eviction.
	EvictPenalty time.Duration

	// ---- Sockets / transport ----

	// SockBuf is the socket buffer (flow-control window) size.
	SockBuf int
	// MTU is the maximum transmission unit (1500; Case 4 raises it).
	MTU int
	// ChunkMax is the largest burst simulated as one event.
	ChunkMax int
	// TSO reports whether transmit segmentation is offloaded.
	TSO bool

	// ---- Link fabric ----

	// PortRateBps is one port's line rate (1 Gb/s).
	PortRateBps int64
	// PropDelay is switch + propagation latency per chunk.
	PropDelay time.Duration
}

// Default returns the calibrated Testbed-1 parameter set.
func Default() *Params {
	return &Params{
		Cores:         4,
		ContextSwitch: 1200 * time.Nanosecond,
		CSIndirect:    3 * time.Microsecond,
		Syscall:       900 * time.Nanosecond,

		CacheSize:  2 * MB,
		CacheLine:  64,
		CacheWays:  8,
		StreamHit:  4 * time.Nanosecond,
		StreamMiss: 25 * time.Nanosecond,
		RandHit:    4 * time.Nanosecond,
		RandMiss:   90 * time.Nanosecond,

		DMABytesPerSec: 2600 * 1000 * 1000,
		DMAStartup:     1800 * time.Nanosecond,
		DMAPerPage:     40 * time.Nanosecond,
		PinPerPage:     150 * time.Nanosecond,
		DMAFrameSubmit: 150 * time.Nanosecond,
		PageSize:       4 * KB,

		FrameWireOverhead: 90,
		HeaderBytes:       66,
		Intr:              2200 * time.Nanosecond,
		CoalesceFrames:    4,
		FrameProc:         950 * time.Nanosecond,
		HeaderLines:       2,
		ConnStateLines:    2,
		BufMgmt:           300 * time.Nanosecond,
		AckProc:           300 * time.Nanosecond,
		TxFrame:           650 * time.Nanosecond,
		TSOFrame:          80 * time.Nanosecond,
		TxCompleteFrame:   500 * time.Nanosecond,
		RxBufSize:         2 * KB,
		HeaderRingBytes:   64 * KB,
		EvictPenalty:      70 * time.Nanosecond,

		SockBuf:  256 * KB,
		MTU:      1500,
		ChunkMax: 64 * KB,
		TSO:      false,

		PortRateBps: 1000 * 1000 * 1000,
		PropDelay:   2 * time.Microsecond,
	}
}

// Validate rejects parameter sets whose geometry would make a component
// misbehave far from the mistake: a non-positive RxBufSize sends the NIC's
// buffer sizing into an infinite doubling loop, a zero CoalesceFrames
// divides by zero deep in interrupt pricing, a bad cache geometry panics
// inside mem.NewCache with no hint of which experiment supplied it.
// Runners call it once at cluster construction so a bad sweep point fails
// immediately, by name.
func (p *Params) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("cost: invalid params: "+format, args...)
	}
	if p.Cores <= 0 {
		return fail("Cores = %d, need at least one core", p.Cores)
	}
	if p.CacheSize <= 0 || p.CacheLine <= 0 || p.CacheWays <= 0 {
		return fail("cache geometry %d bytes / %d-byte lines / %d ways must be positive",
			p.CacheSize, p.CacheLine, p.CacheWays)
	}
	if p.CacheWays > MaxCacheWays {
		return fail("CacheWays = %d: %w", p.CacheWays, ErrCacheWays)
	}
	if p.CacheLine&(p.CacheLine-1) != 0 {
		return fail("CacheLine = %d, must be a power of two", p.CacheLine)
	}
	nsets := p.CacheSize / (p.CacheLine * p.CacheWays)
	if nsets == 0 || nsets&(nsets-1) != 0 {
		return fail("cache of %d bytes with %d-byte lines and %d ways yields %d sets, need a power of two",
			p.CacheSize, p.CacheLine, p.CacheWays, nsets)
	}
	if p.PageSize <= 0 {
		return fail("PageSize = %d, must be positive", p.PageSize)
	}
	if p.MTU <= 52 {
		return fail("MTU = %d leaves no payload after 52 header bytes", p.MTU)
	}
	if p.RxBufSize <= 0 {
		return fail("RxBufSize = %d, must be positive (buffer sizing doubles it up to one frame)",
			p.RxBufSize)
	}
	if p.CoalesceFrames <= 0 {
		return fail("CoalesceFrames = %d, must cover at least one frame per interrupt",
			p.CoalesceFrames)
	}
	if p.HeaderBytes < 0 || p.HeaderLines < 0 || p.ConnStateLines < 0 {
		return fail("negative header geometry (HeaderBytes %d, HeaderLines %d, ConnStateLines %d)",
			p.HeaderBytes, p.HeaderLines, p.ConnStateLines)
	}
	if slot := p.HeaderLines * p.CacheLine; p.HeaderRingBytes < slot {
		return fail("HeaderRingBytes = %d cannot hold one %d-byte split-header slot",
			p.HeaderRingBytes, slot)
	}
	if p.SockBuf <= 0 {
		return fail("SockBuf = %d, must be positive", p.SockBuf)
	}
	if p.ChunkMax <= 0 {
		return fail("ChunkMax = %d, must be positive", p.ChunkMax)
	}
	if p.PortRateBps <= 0 {
		return fail("PortRateBps = %d, must be positive", p.PortRateBps)
	}
	if p.DMABytesPerSec <= 0 {
		return fail("DMABytesPerSec = %d, must be positive", p.DMABytesPerSec)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"ContextSwitch", p.ContextSwitch}, {"CSIndirect", p.CSIndirect},
		{"Syscall", p.Syscall}, {"StreamHit", p.StreamHit},
		{"StreamMiss", p.StreamMiss}, {"RandHit", p.RandHit},
		{"RandMiss", p.RandMiss}, {"DMAStartup", p.DMAStartup},
		{"DMAPerPage", p.DMAPerPage}, {"PinPerPage", p.PinPerPage},
		{"DMAFrameSubmit", p.DMAFrameSubmit}, {"Intr", p.Intr},
		{"FrameProc", p.FrameProc}, {"BufMgmt", p.BufMgmt},
		{"AckProc", p.AckProc}, {"TxFrame", p.TxFrame},
		{"TSOFrame", p.TSOFrame}, {"TxCompleteFrame", p.TxCompleteFrame},
		{"EvictPenalty", p.EvictPenalty}, {"PropDelay", p.PropDelay},
	} {
		if d.v < 0 {
			return fail("%s = %v, costs cannot be negative", d.name, d.v)
		}
	}
	return nil
}

// Clone returns a copy that experiments may mutate independently.
func (p *Params) Clone() *Params {
	q := *p
	return &q
}

// MSS returns the TCP payload per frame for the configured MTU
// (IP + TCP headers with options take 52 bytes).
func (p *Params) MSS() int { return p.MTU - 52 }

// Frames returns the number of wire frames needed for n payload bytes.
func (p *Params) Frames(n int) int {
	if n <= 0 {
		return 0
	}
	mss := p.MSS()
	return (n + mss - 1) / mss
}

// WireBytes returns the on-wire size of n payload bytes including
// all per-frame overheads.
func (p *Params) WireBytes(n int) int {
	return n + p.Frames(n)*p.FrameWireOverhead
}

// WireTime returns the serialization time of n payload bytes on one port.
//
//ioatlint:allow deadapi — read by internal/nic's tests
func (p *Params) WireTime(n int) time.Duration {
	bits := int64(p.WireBytes(n)) * 8
	return time.Duration(bits * int64(time.Second) / p.PortRateBps)
}

// Pages returns the number of pages spanned by an n-byte buffer.
func (p *Params) Pages(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.PageSize - 1) / p.PageSize
}
