package sim

// This file provides synchronization primitives for simulation processes:
// FIFO channels, counted resources (semaphores) and wait groups. They are
// deliberately simple: because the event loop runs processes one at a
// time, none of them need real locking.

// Chan is an unbounded FIFO message queue between simulation processes.
// Send never blocks; Recv blocks the calling process until a value is
// available. Values are delivered in send order, and blocked receivers
// are woken in arrival order.
type Chan[T any] struct {
	sim     *Simulator
	queue   []T
	waiters []*Proc
	closed  bool
}

// NewChan returns an empty channel bound to the simulator.
func NewChan[T any](s *Simulator) *Chan[T] {
	return &Chan[T]{sim: s}
}

// Len reports the number of queued, undelivered values.
func (c *Chan[T]) Len() int { return len(c.queue) }

// Send enqueues v. If a receiver is parked, it is scheduled to wake at
// the current time. Sending on a closed channel panics.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	c.queue = append(c.queue, v)
	c.wakeOne()
}

// Close marks the channel closed. Parked and future receivers return the
// zero value with ok == false once the queue drains.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.waiters {
		w := w
		c.sim.Schedule(0, func() { c.sim.runProc(w) })
	}
	c.waiters = nil
}

// Recv blocks p until a value is available, returning it with ok == true,
// or returns a zero value with ok == false if the channel is closed and
// drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	for len(c.queue) == 0 {
		if c.closed {
			return v, false
		}
		c.waiters = append(c.waiters, p)
		p.park()
	}
	v = c.queue[0]
	c.queue = c.queue[1:]
	return v, true
}

func (c *Chan[T]) wakeOne() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.sim.Schedule(0, func() { c.sim.runProc(w) })
}

// Resource is a counted semaphore with FIFO waiters: up to Capacity units
// may be held concurrently.
type Resource struct {
	sim      *Simulator
	capacity int
	inUse    int
	waiters  []resWaiter
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity (> 0).
func NewResource(s *Simulator, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Acquire blocks p until one unit is available, then holds it.
func (r *Resource) Acquire(p *Proc) { r.AcquireN(p, 1) }

// AcquireN blocks p until n units are available, then holds them.
// Requests are honored strictly in FIFO order to prevent starvation of
// large requests.
func (r *Resource) AcquireN(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic("sim: bad acquire count")
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters = append(r.waiters, resWaiter{p: p, n: n})
	p.park()
	// The releaser already accounted the units to us before waking us.
}

// Release returns one unit.
func (r *Resource) Release() { r.ReleaseN(1) }

// ReleaseN returns n units, waking FIFO waiters whose requests now fit.
func (r *Resource) ReleaseN(n int) {
	if n <= 0 || r.inUse < n {
		panic("sim: release without matching acquire")
	}
	r.inUse -= n
	for len(r.waiters) > 0 && r.inUse+r.waiters[0].n <= r.capacity {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		wp := w.p
		r.sim.Schedule(0, func() { r.sim.runProc(wp) })
	}
}

// WaitGroup lets one process wait for a set of others to finish.
type WaitGroup struct {
	sim    *Simulator
	count  int
	waiter *Proc
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(s *Simulator) *WaitGroup { return &WaitGroup{sim: s} }

// Add increases the outstanding count by n.
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	wg.maybeWake()
}

// Done decrements the outstanding count.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks p until the count reaches zero. One waiter at a time.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	if wg.waiter != nil {
		panic("sim: second waiter on WaitGroup")
	}
	wg.waiter = p
	p.park()
}

func (wg *WaitGroup) maybeWake() {
	if wg.count == 0 && wg.waiter != nil {
		w := wg.waiter
		wg.waiter = nil
		wg.sim.Schedule(0, func() { wg.sim.runProc(w) })
	}
}
