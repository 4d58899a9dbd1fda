// Package cpu models a node's processor: a fixed set of cores executing
// non-preemptive work items from per-core FIFO queues, with busy-time
// accounting that yields exactly the CPU-utilization numbers the paper
// reports.
//
// Work can be submitted asynchronously (Submit/SubmitOn — used by the
// interrupt/softirq receive path, which the paper pins to one core) or
// charged to a simulation task that waits for it (ExecTask — used by
// application threads).
package cpu

import (
	"math"
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/sim"
	"ioatsim/internal/trace"
)

// CPU is one node's set of cores.
type CPU struct {
	S *sim.Simulator
	P *cost.Params

	cores   []core
	threads int

	markAt       sim.Time
	markBusy     time.Duration
	markCoreBusy []time.Duration

	chk *check.Checker
	obs *trace.Obs

	// fault, when non-nil, scales every work item (a degraded node).
	// Every Submit*/Exec* variant funnels through enqueue, so this one
	// hook covers the whole CPU model; nil costs one pointer compare.
	fault *fault.NodeFault
}

type core struct {
	nextFree sim.Time
	busy     time.Duration // cumulative busy time as of nextFree
}

// New returns a CPU with p.Cores cores.
func New(s *sim.Simulator, p *cost.Params) *CPU {
	if p.Cores <= 0 {
		panic("cpu: need at least one core")
	}
	return &CPU{S: s, P: p, cores: make([]core, p.Cores),
		markCoreBusy: make([]time.Duration, p.Cores)}
}

// NumCores returns the number of cores.
func (c *CPU) NumCores() int { return len(c.cores) }

// SetChecker puts the CPU in checked mode: every work item asserts that
// its core's schedule only moves forward, and every utilization read
// stays in [0, 1].
func (c *CPU) SetChecker(chk *check.Checker) { c.chk = chk }

// SetObs attaches the node's observability sinks. Every core-work span
// and profiler sample flows through enqueue, so this one pointer covers
// the whole CPU model.
func (c *CPU) SetObs(o *trace.Obs) { c.obs = o }

// SetFault installs the node's slowdown state (host construction wires
// it under a fault plan).
func (c *CPU) SetFault(f *fault.NodeFault) { c.fault = f }

// pick returns the index of the core that will become free soonest.
//
//ioat:hotpath
func (c *CPU) pick() int {
	best := 0
	for i := 1; i < len(c.cores); i++ {
		if c.cores[i].nextFree < c.cores[best].nextFree {
			best = i
		}
	}
	return best
}

// enqueue places d of work on core i, attributed to site, and returns
// its completion time.
//
//ioat:hotpath
func (c *CPU) enqueue(i int, d time.Duration, site trace.Site) sim.Time {
	if d < 0 {
		panic("cpu: negative work")
	}
	if c.fault != nil {
		d = c.fault.Scale(d)
	}
	now := c.S.Now()
	co := &c.cores[i]
	start := co.nextFree
	if start < now {
		start = now
	}
	end := start.Add(d)
	if c.chk != nil {
		// A core's schedule only ever extends: completion times are
		// monotone and busy time accumulates.
		c.chk.Assert(end >= co.nextFree && end >= now,
			"cpu", "core %d completion %v behind its queue (nextFree %v, now %v)",
			i, end, co.nextFree, now)
	}
	co.nextFree = end
	co.busy += d
	if c.obs != nil && d > 0 {
		c.obs.Span(trace.TidCore(i), site, start, d, 0)
		c.obs.Cost(site, d)
	}
	return end
}

// Submit executes d of work on the least-loaded core, then runs fn (which
// may be nil).
func (c *CPU) Submit(d time.Duration, fn func()) {
	c.SubmitOn(c.pick(), d, fn)
}

// SubmitSite is Submit with an explicit attribution site.
func (c *CPU) SubmitSite(site trace.Site, d time.Duration, fn func()) {
	c.SubmitOnSite(c.pick(), site, d, fn)
}

// SubmitOn executes d of work on a specific core (interrupt affinity),
// then runs fn (which may be nil).
func (c *CPU) SubmitOn(i int, d time.Duration, fn func()) {
	c.SubmitOnSite(i, trace.SiteOther, d, fn)
}

// SubmitOnSite is SubmitOn with an explicit attribution site.
func (c *CPU) SubmitOnSite(i int, site trace.Site, d time.Duration, fn func()) {
	end := c.enqueue(i, d, site)
	if fn != nil {
		c.S.At(end, fn)
	}
}

// SubmitOnArgSite is SubmitOnSite with a pre-bound completion callback:
// fn must be long-lived (package-level) and receives arg when the work
// drains. The softirq path uses it so per-chunk completion costs no
// closure allocation.
//
//ioat:hotpath
func (c *CPU) SubmitOnArgSite(i int, site trace.Site, d time.Duration, fn func(any), arg any) {
	end := c.enqueue(i, d, site)
	c.S.AtArg(end, fn, arg)
}

// Backlog returns how far in the future core i's queue currently extends.
func (c *CPU) Backlog(i int) time.Duration {
	now := c.S.Now()
	if c.cores[i].nextFree <= now {
		return 0
	}
	return c.cores[i].nextFree.Sub(now)
}

// ExecTask enqueues d of work on the least-loaded core for task t and
// returns false if the work completes at the current instant: the caller
// continues inline. Otherwise it installs cont as t's continuation,
// schedules t's wake at the completion time (one event) and returns
// true: the caller must suspend.
//
//ioat:hotpath
func (c *CPU) ExecTask(t *sim.Task, cont func(), d time.Duration) bool {
	return c.ExecTaskOnSite(t, cont, c.pick(), trace.SiteApp, d)
}

// ExecThen is ExecTask for code off the hot path: next runs once the
// work completes, inline if it completes at once.
func (c *CPU) ExecThen(t *sim.Task, d time.Duration, next func()) {
	if !c.ExecTask(t, next, d) {
		next()
	}
}

// ExecTaskSite is ExecTask with an explicit attribution site.
//
//ioat:hotpath
func (c *CPU) ExecTaskSite(t *sim.Task, cont func(), site trace.Site, d time.Duration) bool {
	return c.ExecTaskOnSite(t, cont, c.pick(), site, d)
}

// ExecTaskOnSite is ExecTaskSite on a specific core.
//
//ioat:hotpath
func (c *CPU) ExecTaskOnSite(t *sim.Task, cont func(), i int, site trace.Site, d time.Duration) bool {
	end := c.enqueue(i, d, site)
	if end.Sub(t.Now()) <= 0 {
		return false
	}
	t.OnWake(cont)
	t.WakeAt(end)
	return true
}

// busyUpTo returns total busy time across cores up to time t. Queued work
// occupies each core contiguously from now to nextFree, so the cumulative
// counter only needs correcting for the not-yet-elapsed tail.
func (c *CPU) busyUpTo(t sim.Time) time.Duration {
	var total time.Duration
	for i := range c.cores {
		b := c.cores[i].busy
		if c.cores[i].nextFree > t {
			b -= c.cores[i].nextFree.Sub(t)
		}
		total += b
	}
	return total
}

// ResetWindow starts a new measurement window at the current time.
func (c *CPU) ResetWindow() {
	c.markAt = c.S.Now()
	c.markBusy = c.busyUpTo(c.markAt)
	for i := range c.cores {
		c.markCoreBusy[i] = c.coreBusyUpTo(i, c.markAt)
	}
}

// CoreBusyTotal returns core i's cumulative busy time since construction
// up to the current virtual time (no window reset), for metrics sampling.
func (c *CPU) CoreBusyTotal(i int) time.Duration {
	return c.coreBusyUpTo(i, c.S.Now())
}

// coreBusyUpTo returns core i's busy time up to t.
func (c *CPU) coreBusyUpTo(i int, t sim.Time) time.Duration {
	b := c.cores[i].busy
	if c.cores[i].nextFree > t {
		b -= c.cores[i].nextFree.Sub(t)
	}
	return b
}

// Utilization returns mean busy fraction across all cores since the last
// ResetWindow (or the start of the run), in [0, 1].
func (c *CPU) Utilization() float64 {
	now := c.S.Now()
	if now <= c.markAt {
		return 0
	}
	busy := c.busyUpTo(now) - c.markBusy
	u := busy.Seconds() / (float64(len(c.cores)) * now.Sub(c.markAt).Seconds())
	if c.chk != nil {
		c.chk.InRange("cpu", "utilization", u, 0, 1+1e-9)
	}
	return u
}

// BusyTime returns the total busy time across cores since the last
// ResetWindow.
func (c *CPU) BusyTime() time.Duration {
	return c.busyUpTo(c.S.Now()) - c.markBusy
}

// CoreUtilization returns core i's busy fraction since the last
// ResetWindow — the receive-core saturation metric.
func (c *CPU) CoreUtilization(i int) float64 {
	now := c.S.Now()
	if now <= c.markAt {
		return 0
	}
	b := c.coreBusyUpTo(i, now) - c.markCoreBusy[i]
	u := b.Seconds() / now.Sub(c.markAt).Seconds()
	if c.chk != nil {
		c.chk.InRange("cpu", "core utilization", u, 0, 1+1e-9)
	}
	return u
}

// RegisterThread records one more schedulable thread on this node.
// Components that model threads (stream receivers, server workers) call
// this so wake costs reflect oversubscription.
func (c *CPU) RegisterThread() { c.threads++ }

// WakeCost returns the cost of waking a blocked thread: the base context
// switch plus an indirect penalty that grows with the log of
// oversubscription (cold caches, scheduler queueing) — steep enough to
// bound thread scalability, gentle enough that hundreds of mostly-idle
// threads remain schedulable.
func (c *CPU) WakeCost() time.Duration {
	d := c.P.ContextSwitch
	if over := c.threads - len(c.cores); over > 0 {
		factor := math.Log2(1 + float64(over)/float64(len(c.cores)))
		d += time.Duration(factor * float64(c.P.CSIndirect))
	}
	return d
}
