// Package dma models the I/OAT asynchronous copy engine: a per-node
// device that moves memory at its own bandwidth while the CPU does other
// work. The CPU pays only a per-transfer setup cost (descriptor writes,
// one per physical page, plus a doorbell); the bytes never pass through
// the CPU cache, though destination lines must be invalidated to stay
// coherent (paper §2.2.2).
package dma

import (
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
	"ioatsim/internal/trace"
)

// Engine is one node's copy engine. Transfers are executed in submission
// order at the engine's bandwidth.
type Engine struct {
	S   *sim.Simulator
	P   *cost.Params
	Mem *mem.Model

	nextFree sim.Time

	// Transfers and BytesMoved count completed work for reporting.
	Transfers  int64
	BytesMoved int64
	busy       time.Duration
	markAt     sim.Time
	markBusy   time.Duration

	// Free lists for in-flight transfer records and retired completions,
	// so a steady-state copy stream allocates nothing per Submit.
	xferFree []*xfer
	doneFree []*sim.Completion

	chk *check.Checker
	obs *trace.Obs
}

// SetChecker puts the engine in checked mode: each transfer's bytes
// enter and leave the "dma:bytes" ledger, and its descriptor chain is
// audited against the transfer length.
func (e *Engine) SetChecker(c *check.Checker) { e.chk = c }

// SetObs attaches the owning node's observability sinks; each transfer
// then records its engine-occupancy span on the node's dma track. (The
// CPU-side setup cost is charged — and attributed — by the caller.)
func (e *Engine) SetObs(o *trace.Obs) { e.obs = o }

// xfer carries one in-flight transfer between Submit and its completion
// event, pre-bound so no per-transfer closure is needed.
type xfer struct {
	e    *Engine
	dst  mem.Addr
	n    int
	done *sim.Completion
}

// New returns an idle engine.
func New(s *sim.Simulator, p *cost.Params, m *mem.Model) *Engine {
	return &Engine{S: s, P: p, Mem: m}
}

// SetupCost returns the CPU time to program one n-byte transfer: a fixed
// startup plus one descriptor per spanned page (physical pages are
// discontiguous, so a transfer cannot span them in one descriptor).
func (e *Engine) SetupCost(n int) time.Duration {
	return e.P.DMAStartup + time.Duration(e.P.Pages(n))*e.P.DMAPerPage
}

// PinCost returns the CPU time to pin the pages of an n-byte user buffer
// before the engine may address it (paper §7's caveat: if pinning costs
// exceed the copy, the engine stops paying off).
func (e *Engine) PinCost(n int) time.Duration {
	return time.Duration(e.P.Pages(n)) * e.P.PinPerPage
}

// TransferTime returns how long the engine itself needs for n bytes.
func (e *Engine) TransferTime(n int) time.Duration {
	return time.Duration(int64(n) * int64(time.Second) / e.P.DMABytesPerSec)
}

// Submit queues a copy of n bytes from src to dst and returns a
// completion that fires when the data is in place. The caller is
// responsible for charging SetupCost (and PinCost where applicable) to a
// CPU core; Submit itself only occupies the engine.
//
// Destination cache lines are invalidated at completion: the engine wrote
// memory behind the cache's back.
//
//ioat:hotpath
func (e *Engine) Submit(src, dst mem.Addr, n int) *sim.Completion {
	if n < 0 {
		panic("dma: negative transfer")
	}
	var done *sim.Completion
	if k := len(e.doneFree); k > 0 {
		done = e.doneFree[k-1]
		e.doneFree = e.doneFree[:k-1]
	} else {
		//ioatlint:allow hotpathalloc — completion free-list refill: amortized to zero by Recycle
		done = e.S.NewCompletion()
	}
	now := e.S.Now()
	start := e.nextFree
	if start < now {
		start = now
	}
	ser := e.TransferTime(n)
	end := start.Add(ser)
	if e.chk != nil {
		e.auditDescriptors(src, n)
		e.chk.Assert(end >= e.nextFree && end >= now,
			"dma", "transfer finishing %v behind the engine queue (nextFree %v)", end, e.nextFree)
		e.chk.Ledger("dma:bytes").In(int64(n))
	}
	e.nextFree = end
	e.busy += ser
	if e.obs != nil && n > 0 {
		e.obs.Span(trace.TidDMA, trace.SiteDMAXfer, start, ser, int64(n))
	}
	var x *xfer
	if k := len(e.xferFree); k > 0 {
		x = e.xferFree[k-1]
		e.xferFree = e.xferFree[:k-1]
	} else {
		//ioatlint:allow hotpathalloc — xfer free-list refill: xferDone recycles every descriptor
		x = &xfer{e: e}
	}
	x.dst, x.n, x.done = dst, n, done
	e.S.AtArg(end, xferDone, x)
	return done
}

// xferDone is the pre-bound transfer-completion event.
//
//ioat:hotpath
func xferDone(a any) {
	x := a.(*xfer)
	e := x.e
	e.Transfers++
	e.BytesMoved += int64(x.n)
	if e.chk != nil {
		e.chk.Ledger("dma:bytes").Out(int64(x.n))
	}
	if e.Mem != nil {
		e.Mem.DMAWrite(x.dst, x.n)
	}
	done := x.done
	x.done = nil
	e.xferFree = append(e.xferFree, x)
	done.Complete()
}

// Recycle returns a fired completion handed out by Submit to the engine's
// pool. Callers may recycle only after the completion has fired and its
// waiter (if any) has resumed — i.e. after Wait has returned.
//
//ioat:hotpath
func (e *Engine) Recycle(done *sim.Completion) {
	done.Reset()
	e.doneFree = append(e.doneFree, done)
}

// auditDescriptors walks the descriptor chain the engine would program
// for an n-byte transfer from src — one descriptor per spanned source
// page, split at page boundaries — and verifies that the descriptor
// byte counts sum exactly to the transfer length and that the chain is
// no longer than the SetupCost model charges for.
func (e *Engine) auditDescriptors(src mem.Addr, n int) {
	if n == 0 {
		return
	}
	page := e.P.PageSize
	descs, sum := 0, 0
	for off := 0; off < n; descs++ {
		span := page - int((uint64(src)+uint64(off))%uint64(page))
		if span > n-off {
			span = n - off
		}
		sum += span
		off += span
	}
	e.chk.Assert(sum == n,
		"dma", "descriptor chain covers %d bytes of a %d-byte transfer", sum, n)
	// An unaligned start adds at most one descriptor over the page count
	// SetupCost charges for.
	e.chk.Assert(descs <= e.P.Pages(n)+1,
		"dma", "%d-byte transfer needs %d descriptors, model charges for %d pages",
		n, descs, e.P.Pages(n))
}

// QueueDelay reports how long a transfer submitted now would wait before
// the engine starts on it.
func (e *Engine) QueueDelay() time.Duration {
	now := e.S.Now()
	if e.nextFree <= now {
		return 0
	}
	return e.nextFree.Sub(now)
}

// ResetWindow starts a new utilization measurement window.
func (e *Engine) ResetWindow() {
	e.markAt = e.S.Now()
	e.markBusy = e.busyUpTo(e.markAt)
}

func (e *Engine) busyUpTo(t sim.Time) time.Duration {
	b := e.busy
	if e.nextFree > t {
		b -= e.nextFree.Sub(t)
	}
	return b
}
