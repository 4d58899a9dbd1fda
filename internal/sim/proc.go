package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// Proc is a simulation process: sequential code running in its own
// goroutine, scheduled exclusively by the event loop. Sleep parks the
// goroutine and hands control back to the event loop; the wake event
// resumes it, at the cost of two host context switches.
//
// Deprecated: simulation code runs on Task continuations. Proc is kept
// only for the repository benchmark's sim.proc_wake_ns rung, which
// measures exactly this handoff; it goes when that rung does.
type Proc struct {
	sim    *Simulator
	name   string
	resume chan struct{}
	dead   bool // set when the process function returned or was ended
	live   int  // index in sim.procs while not dead

	// failure is the panic message of a process body that panicked,
	// handed to runProc to re-raise on the event-loop goroutine.
	failure string
}

// Spawn starts fn as a simulation process at the current virtual time.
// fn begins executing when the event loop reaches the spawn event.
//
// Deprecated: use NewTask and Task.Start. Spawn is kept only for the
// repository benchmark's sim.proc_wake_ns rung.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{}), live: len(s.procs)}
	s.procs = append(s.procs, p)
	//ioatlint:allow simdeterminism — the engine's own process machinery: exactly one goroutine runs at a time, hand-off is via resume/parked, so scheduling stays deterministic
	go p.run(fn)
	s.ScheduleArg(0, resumeProc, p)
	return p
}

// run is the body of p's goroutine: it waits to be scheduled for the
// first time, runs fn, and hands control back to the event loop however
// fn ends. A return is the normal case. A panic is recovered here,
// where no caller could see it, and runProc re-raises it on the
// event-loop goroutine, so the caller of Run can recover it. A
// runtime.Goexit from wait means Close ended the process.
func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		// recover is nil after a return and after Goexit, and only
		// then: since Go 1.21 a panic(nil) recovers as a
		// *runtime.PanicNilError.
		if r := recover(); r != nil {
			p.failure = fmt.Sprintf("sim: process %q panicked: %v\n\n%s", p.name, r, debug.Stack())
		}
		p.exit()
	}()
	p.wait()
	fn(p)
}

// exit marks p dead, drops it from the live set and returns control to
// whoever waits on parked: runProc, or Close.
func (p *Proc) exit() {
	s := p.sim
	p.dead = true
	last := len(s.procs) - 1
	s.procs[p.live] = s.procs[last]
	s.procs[p.live].live = p.live
	s.procs[last] = nil
	s.procs = s.procs[:last]
	s.parked <- struct{}{}
}

// Close ends the simulation. Every process that has not returned is
// ended where it is parked: Close closes its resume channel, so its
// goroutine leaves through runtime.Goexit (running the body's deferred
// calls) or, if it never ran, before running fn, and Close waits for
// each to acknowledge over parked before ending the next. Call it from
// the goroutine that runs the simulation, once Run or RunUntil has
// returned or panicked. Pending events stay queued and never run: Run,
// RunUntil and Step panic on a closed simulator. A second Close does
// nothing.
func (s *Simulator) Close() {
	s.closed = true
	for n := len(s.procs); n > 0; n = len(s.procs) {
		close(s.procs[n-1].resume)
		<-s.parked
	}
}

// resumeProc is the pre-bound callback behind every process wake-up
// (Spawn, Sleep): scheduling it with the process as the event argument
// costs no allocation.
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
	p.resume <- struct{}{}
	<-s.parked
	if p.failure != "" {
		panic(p.failure)
	}
}

// park suspends the calling process until the event loop resumes it.
func (p *Proc) park() {
	p.sim.parked <- struct{}{}
	p.wait()
}

// wait blocks until the event loop resumes p, and ends p's goroutine
// instead when Close has closed its resume channel.
func (p *Proc) wait() {
	if _, ok := <-p.resume; !ok {
		runtime.Goexit()
	}
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

// globalProcSwitches accumulates goroutine handoffs (runProc calls, each
// costing two host context switches: event loop -> process goroutine and
// back) across every simulator in the process, flushed once per
// Run/RunUntil/Step like globalExecuted. Task wakes never count, and no
// simulation code spawns a Proc, so it stays at zero outside the
// benchmark's proc_wake_ns rung. Outcomes never depend on it.
var globalProcSwitches atomic.Uint64

// GlobalProcSwitches reports the total event-loop-to-goroutine handoffs
// performed by all simulators in this process so far.
func GlobalProcSwitches() uint64 { return globalProcSwitches.Load() }
