package sim

import "fmt"

// Proc is a simulation process: sequential code running in its own
// goroutine, scheduled exclusively by the event loop. Blocking operations
// (Sleep, channel receive, resource acquire) park the goroutine and hand
// control back to the event loop; a later event resumes it.
//
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	sim    *Simulator
	name   string
	resume chan struct{}
	dead   bool // set when the process function returned

	// await tracks the Done/Await pair; done is the bound callback Done
	// hands out (nil until the process first calls Done).
	await awaitState
	done  func()
}

// awaitState is where a process stands in one Done/Await round.
type awaitState uint8

const (
	awaitIdle   awaitState = iota
	awaitArmed             // Done called; the callback has not fired
	awaitFired             // the callback fired before Await
	awaitParked            // parked in Await until the callback fires
)

// Name returns the label the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn starts fn as a simulation process at the current virtual time.
// fn begins executing when the event loop reaches the spawn event.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a simulation process after delay d.
func (s *Simulator) SpawnAfter(d Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.nprocs++
	//ioatlint:allow simdeterminism — the engine's own process machinery: exactly one goroutine runs at a time, hand-off is via resume/parked, so scheduling stays deterministic
	go func() {
		<-p.resume // wait to be scheduled for the first time
		fn(p)
		p.dead = true
		s.nprocs--
		s.parked <- struct{}{} // return control to the event loop
	}()
	s.ScheduleArg(d, resumeProc, p)
	return p
}

// resumeProc is the pre-bound callback behind every process wake-up
// (Sleep, Wake, Completion, Spawn): scheduling it with the process as
// the event argument costs no allocation, where a per-event closure
// over p would.
//
//ioat:hotpath
func resumeProc(a any) {
	p := a.(*Proc)
	p.sim.runProc(p)
}

// runProc transfers control to p until it parks or finishes. Called only
// from event callbacks (the event-loop goroutine).
func (s *Simulator) runProc(p *Proc) {
	if p.dead {
		panic(fmt.Sprintf("sim: resuming dead process %q", p.name))
	}
	if s.procProbe != nil {
		s.procProbe.ProcRun(p.name, s.now)
	}
	s.procSwitches++
	prev := s.current
	s.current = p
	p.resume <- struct{}{}
	<-s.parked
	s.current = prev
}

// park suspends the calling process until the event loop resumes it.
func (p *Proc) park() {
	p.sim.parked <- struct{}{}
	<-p.resume
}

// Wake schedules a parked process to resume at the current time.
//
//ioat:hotpath
func (s *Simulator) Wake(p *Proc) {
	s.ScheduleArg(0, resumeProc, p)
}

// Sleep suspends the process for virtual duration d. The wake-up event
// is pre-bound to the process, so sleeping allocates nothing.
//
//ioat:hotpath
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.sim.ScheduleArg(d, resumeProc, p)
	p.park()
}

// Done arms p for one Await and returns the callback that ends it: the
// done callback of a continuation (tcp.Sender, tcp.Receiver) that the
// process starts and then awaits. The callback is bound once per
// process, so arming allocates nothing after the first call.
func (p *Proc) Done() func() {
	if p.done == nil {
		p.done = p.fire
	}
	p.await = awaitArmed
	return p.done
}

// Await parks p until the callback from Done fires, or returns at once
// if it already has (the continuation finished without suspending).
func (p *Proc) Await() {
	switch p.await {
	case awaitFired:
		p.await = awaitIdle
	case awaitArmed:
		p.await = awaitParked
		p.park()
	default:
		panic(fmt.Sprintf("sim: process %q awaits without Done", p.name))
	}
}

// fire is the callback Done binds. Fired from an event while p is
// parked in Await, it resumes p inside that same event and pushes
// nothing, so the process continues exactly where the continuation
// finished: a blocking call built on a continuation schedules every
// event the continuation schedules, in the same order. Fired before
// Await, it only lets Await return at once. Firing twice, or from a
// process goroutine while p is parked, panics: the first is a protocol
// bug, and the second would hand off to p from outside the event loop.
func (p *Proc) fire() {
	switch p.await {
	case awaitArmed:
		p.await = awaitFired
	case awaitParked:
		if p.sim.current != nil {
			panic(fmt.Sprintf("sim: done callback of process %q fired from a process goroutine", p.name))
		}
		p.await = awaitIdle
		p.sim.runProc(p)
	default:
		panic(fmt.Sprintf("sim: done callback of process %q fired twice", p.name))
	}
}

// completion is a one-shot event a process can wait on. It is safe to
// Complete before or after Wait begins; Wait returns immediately if the
// completion already fired.
type completion struct {
	sim    *Simulator
	done   bool
	waiter any // *Proc or *Task
}

// NewCompletion returns a one-shot completion bound to the simulator.
func (s *Simulator) NewCompletion() *Completion {
	return &Completion{c: completion{sim: s}}
}

// Completion is a one-shot synchronization point: one waiter, one signal.
type Completion struct{ c completion }

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.c.done }

// Complete fires the completion, waking the waiter if one is parked.
// Completing twice panics: that always indicates a protocol bug.
//
//ioat:hotpath
func (c *Completion) Complete() {
	if c.c.done {
		panic("sim: completion fired twice")
	}
	c.c.done = true
	if w := c.c.waiter; w != nil {
		c.c.waiter = nil
		c.c.sim.wakeAny(w)
	}
}

// Reset rearms a fired completion for reuse, so pools can recycle
// completions instead of allocating one per transfer. It panics if the
// completion has not fired or still has a parked waiter — recycling an
// in-flight completion would strand its waiter forever.
//
//ioat:hotpath
func (c *Completion) Reset() {
	if !c.c.done {
		panic("sim: reset of an unfired completion")
	}
	if c.c.waiter != nil {
		panic("sim: reset of a completion with a parked waiter")
	}
	c.c.done = false
}

// Wait parks p until Complete is called. Only one waiter may wait.
func (c *Completion) Wait(p *Proc) {
	if c.c.done {
		return
	}
	if c.c.waiter != nil {
		panic("sim: second waiter on completion")
	}
	c.c.waiter = p
	p.park()
}

// WaitTask is Wait for an event-driven continuation: if the completion
// has already fired it returns false and the caller continues inline
// (mirroring Wait's immediate return); otherwise it installs cont as t's
// continuation, registers t as the waiter, and returns true — the caller
// must suspend, and Complete will wake t.
//
//ioat:hotpath
func (c *Completion) WaitTask(t *Task, cont func()) bool {
	if c.c.done {
		return false
	}
	if c.c.waiter != nil {
		panic("sim: second waiter on completion")
	}
	t.OnWake(cont)
	c.c.waiter = t
	return true
}
