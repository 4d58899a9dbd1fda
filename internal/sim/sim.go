// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock (nanosecond resolution) and an event
// heap ordered by (time, sequence). Work is expressed as plain callback
// events (Schedule/At) or as Task continuations, state machines whose
// wakes are ordinary events; everything runs on the one goroutine that
// calls Run, so every run is deterministic.
//
// The pending set is the engine's hottest structure: every simulated
// frame, interrupt, copy and wake-up passes through it once. It is a
// 4-ary min-heap of events held by value (heap.go), sized for the few
// hundred events the experiments keep pending at most; the steady state
// allocates nothing per event, since the slice's capacity is reused.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// globalExecuted accumulates dispatched-event counts across every
// simulator in the process, flushed once per Run/RunUntil/Step rather
// than per event. It feeds throughput reporting (events/sec) in the
// benchmark drivers; simulation outcomes never depend on it.
var globalExecuted atomic.Uint64

// GlobalExecuted reports the total events dispatched by all simulators
// in this process so far.
func GlobalExecuted() uint64 { return globalExecuted.Load() }

// globalPeakPending is the deepest pending-event set any simulator in
// the process has reached, flushed on the same cadence as
// globalExecuted. It feeds benchmark reports (the depth the pending set
// must handle); outcomes never depend on it.
var globalPeakPending atomic.Uint64

// GlobalPeakPending reports the deepest pending-event set reached by
// any simulator in this process so far.
func GlobalPeakPending() uint64 { return globalPeakPending.Load() }

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// maxTime is the largest representable timestamp, used as "no deadline".
const maxTime = Time(1<<63 - 1)

// Duration re-exports time.Duration for convenience in simulation code.
type Duration = time.Duration

// String formats the timestamp as a duration since the start of the run.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the timestamp advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed between u and t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the timestamp as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// event is a single scheduled callback, stored by value in the heap.
// It carries either a plain closure (fn) or a pre-bound function plus
// argument (argFn, arg): the steady-state packet paths schedule with the
// latter so that no per-event closure is allocated — the functions are
// package-level and the argument is a recycled pointer.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any
}

// Probe observes engine activity for debug-mode checking (the
// invariant checker in internal/check). Install one with WithProbe;
// without it the engine pays a single predictable nil-branch per event.
type Probe interface {
	// EventScheduled fires inside At after validation: now is the
	// current clock, at the requested dispatch time.
	EventScheduled(now, at Time)
	// EventDispatched fires as each event is popped, just before its
	// callback runs.
	EventDispatched(at Time)
}

// ProcProbe observes scheduler hand-offs to simulation tasks (the
// tracer in internal/trace). Install one with WithProcProbe.
type ProcProbe interface {
	// ProcRun fires each time the event loop runs a task's
	// continuation (start, wake, charge expiry, completion).
	ProcRun(name string, at Time)
}

// Option configures a Simulator at construction.
type Option func(*Simulator)

// WithProbe installs the probe that observes every schedule and
// dispatch. A simulator holds at most one; a later WithProbe replaces
// an earlier one.
func WithProbe(p Probe) Option {
	return func(s *Simulator) { s.probe = p }
}

// WithProcProbe installs the probe that observes every task run. A
// simulator holds at most one; a later WithProcProbe replaces an
// earlier one.
func WithProcProbe(p ProcProbe) Option {
	return func(s *Simulator) { s.procProbe = p }
}

// Simulator owns the virtual clock and the pending event set.
// The zero value is not usable; call New.
type Simulator struct {
	now Time
	seq uint64

	// probe and procProbe are the observers WithProbe and WithProcProbe
	// install, nil when there are none.
	probe     Probe
	procProbe ProcProbe

	// heap holds the pending events (heap.go); peak is the most ever
	// pending at once (never outcome-affecting).
	heap []event
	peak int

	// Deprecated Proc handshake (proc.go). While a process goroutine
	// runs, the event loop (or Close) blocks on parked, so exactly one
	// goroutine ever touches simulator state at a time. procs holds the
	// processes that have not returned; closed is set by Close.
	parked chan struct{}
	procs  []*Proc
	closed bool

	// executed counts events dispatched, for diagnostics and tests;
	// flushed marks how much of it has been added to globalExecuted.
	executed uint64
	flushed  uint64

	// procSwitches counts event-loop-to-goroutine handoffs (runProc
	// calls); flushedSwitches marks how much of it has been published to
	// globalProcSwitches. Task wakes never count.
	procSwitches    uint64
	flushedSwitches uint64
}

// flushExecuted publishes this simulator's not-yet-reported event count
// to the process-wide counter.
func (s *Simulator) flushExecuted() {
	if d := s.executed - s.flushed; d > 0 {
		globalExecuted.Add(d)
		s.flushed = s.executed
	}
	if d := s.procSwitches - s.flushedSwitches; d > 0 {
		globalProcSwitches.Add(d)
		s.flushedSwitches = s.procSwitches
	}
	for p := uint64(s.peak); ; {
		cur := globalPeakPending.Load()
		if p <= cur || globalPeakPending.CompareAndSwap(cur, p) {
			break
		}
	}
}

// New returns an empty simulator with the clock at zero.
func New(opts ...Option) *Simulator {
	s := &Simulator{parked: make(chan struct{})}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Executed reports how many events have been dispatched so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending reports how many events are scheduled but not yet dispatched.
func (s *Simulator) Pending() int { return len(s.heap) }

// PeakPending reports the most events ever pending at once in this
// simulator. It never influences simulation outcomes.
func (s *Simulator) PeakPending() int { return s.peak }

// Schedule arranges for fn to run after delay d. A negative delay panics:
// simulated time cannot move backwards.
//
//ioat:hotpath
func (s *Simulator) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now.Add(d), fn)
}

// At arranges for fn to run at absolute time t, which must not precede the
// current time.
//
//ioat:hotpath
func (s *Simulator) At(t Time, fn func()) {
	s.push(t, fn, nil, nil)
}

// ScheduleArg is Schedule for a pre-bound callback: fn must be a
// package-level (or otherwise long-lived) function, and arg — typically
// a pooled pointer — is passed to it at dispatch. Unlike a capturing
// closure, the pair allocates nothing, which keeps the steady-state
// packet path (wake-ups, deliveries, credits, completions) alloc-free.
//
//ioat:hotpath
func (s *Simulator) ScheduleArg(d Duration, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.AtArg(s.now.Add(d), fn, arg)
}

// AtArg is At for a pre-bound callback; see ScheduleArg.
//
//ioat:hotpath
func (s *Simulator) AtArg(t Time, fn func(any), arg any) {
	s.push(t, nil, fn, arg)
}

// push enqueues one event holding either a closure or a pre-bound
// (argFn, arg) pair. Both forms share the heap, sequence numbering and
// probe hooks, so scheduling order — and therefore every simulated
// outcome — is independent of which form a caller uses.
//
//ioat:hotpath
func (s *Simulator) push(t Time, fn func(), argFn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	if s.probe != nil {
		s.probe.EventScheduled(s.now, t)
	}
	s.enqueue(t, fn, argFn, arg)
}

// Run dispatches events in (time, sequence) order until none is pending.
// It returns the time of the last dispatched event.
func (s *Simulator) Run() Time {
	return s.RunUntil(maxTime)
}

// RunUntil dispatches events with timestamps <= deadline, then advances
// the clock to min(deadline, last event time) and returns it. Events
// beyond the deadline remain pending. A deadline before the current
// time panics: simulated time cannot move backwards.
func (s *Simulator) RunUntil(deadline Time) Time {
	s.mustBeOpen()
	if deadline < s.now {
		panic(fmt.Sprintf("sim: run until %v before now %v", deadline, s.now))
	}
	defer s.flushExecuted()
	for len(s.heap) > 0 {
		if s.heap[0].at > deadline {
			s.now = deadline
			return s.now
		}
		s.dispatch()
	}
	if s.now < deadline && deadline != maxTime {
		s.now = deadline
	}
	return s.now
}

// mustBeOpen panics once Close has ended the simulation: what its
// events would touch may be gone (ended processes, or the caches a
// host.Cluster releases with it), so no event may run.
func (s *Simulator) mustBeOpen() {
	if s.closed {
		panic("sim: run of a closed simulator")
	}
}

// Step dispatches exactly one event if any is pending and reports whether
// it did so.
func (s *Simulator) Step() bool {
	s.mustBeOpen()
	if len(s.heap) == 0 {
		return false
	}
	s.dispatch()
	s.flushExecuted()
	return true
}

// dispatch pops the earliest event, advances the clock to it and runs
// its callback.
func (s *Simulator) dispatch() {
	at, fn, argFn, arg := s.pop()
	s.now = at
	s.executed++
	if s.probe != nil {
		s.probe.EventDispatched(at)
	}
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
}
