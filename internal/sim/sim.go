// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock (nanosecond resolution) and an event
// heap ordered by (time, sequence). Work can be expressed either as plain
// callback events (Schedule/At) or as blocking processes (Spawn) that run
// in their own goroutines but are scheduled strictly one at a time by the
// event loop, so every run is deterministic.
//
// The pending set is the engine's hottest structure: every simulated
// frame, interrupt, copy and wake-up passes through it once. It is a
// hierarchical timing wheel (see wheel.go) over a value arena with a
// free-list, so the steady state allocates nothing per event — arena
// slots and bucket capacity are recycled — and schedule/dispatch stay
// amortized O(1) however deep the pending set grows. Dispatch order is
// strictly (time, sequence): the wheel lazily sorts each one-tick bucket
// by sequence number before draining it, so outcomes are byte-identical
// to a totally ordered heap. (Earlier engines paid O(log n) heap sifts
// per event, and before that one *event allocation per Schedule.)
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
// globalExecuted. It feeds benchmark reports (scheduler depth is what
// distinguishes the wheel from a heap); outcomes never depend on it.
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

// event is a single scheduled callback, stored by value in the arena.
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

// Probe observes engine activity for debug-mode checking and tracing
// (see internal/check, internal/trace, internal/metrics). Install one or
// more with WithProbe; without any the engine pays a single predictable
// nil-branch per event.
type Probe interface {
	// EventScheduled fires inside At after validation: now is the
	// current clock, at the requested dispatch time.
	EventScheduled(now, at Time)
	// EventDispatched fires as each event is popped, just before its
	// callback runs.
	EventDispatched(at Time)
}

// ProcProbe is an optional extension a Probe can implement to observe
// scheduler hand-offs to simulation processes. Only the first installed
// probe implementing it receives the callbacks.
type ProcProbe interface {
	// ProcRun fires each time the event loop transfers control to a
	// process (spawn, wake, sleep expiry, completion).
	ProcRun(name string, at Time)
}

// multiProbe fans engine hooks out to several probes in install order.
// The common cases (zero or one probe) never allocate it: the engine's
// hot path still tests one pointer and makes at most one direct call.
type multiProbe struct{ probes []Probe }

func (m *multiProbe) EventScheduled(now, at Time) {
	for _, p := range m.probes {
		p.EventScheduled(now, at)
	}
}

func (m *multiProbe) EventDispatched(at Time) {
	for _, p := range m.probes {
		p.EventDispatched(at)
	}
}

// Option configures a Simulator at construction.
type Option func(*Simulator)

// WithProbe installs a probe that observes every schedule and dispatch.
// The option may be given multiple times; all probes see every hook, in
// install order.
func WithProbe(p Probe) Option {
	return func(s *Simulator) { s.addProbe(p) }
}

// addProbe appends p to the installed probe set, wrapping in a fan-out
// only once a second probe arrives.
func (s *Simulator) addProbe(p Probe) {
	if p == nil {
		return
	}
	switch cur := s.probe.(type) {
	case nil:
		s.probe = p
	case *multiProbe:
		cur.probes = append(cur.probes, p)
	default:
		s.probe = &multiProbe{probes: []Probe{cur, p}}
	}
	if pp, ok := p.(ProcProbe); ok && s.procProbe == nil {
		s.procProbe = pp
	}
}

// Probes returns the individually installed probes in install order
// (never the internal fan-out wrapper), so subsystems can discover their
// own probe by type even when several are installed.
func (s *Simulator) Probes() []Probe {
	switch cur := s.probe.(type) {
	case nil:
		return nil
	case *multiProbe:
		return cur.probes
	default:
		return []Probe{cur}
	}
}

// Simulator owns the virtual clock and the pending event set.
// The zero value is not usable; call New.
type Simulator struct {
	now     Time
	seq     uint64
	stopped bool
	probe   Probe
	// procProbe caches the first installed probe that also implements
	// ProcProbe, so runProc pays one nil-test instead of a type switch.
	procProbe ProcProbe

	// Pending-event storage. events is the arena; free lists arena slots
	// ready for reuse; the remaining fields are the hierarchical timing
	// wheel that orders arena indices by the events' (at, seq) — see
	// wheel.go.
	events []event
	free   []int32

	// wheel holds pending arena indices bucketed by dispatch time; occ
	// is each level's bucket-occupancy bitmap. overflow collects events
	// beyond the wheel horizon (ovfMin tracks their minimum time), and
	// pending counts every undispatched event wherever it is filed.
	wheel    [numLevels][numSlots][]int32
	occ      [numLevels]uint64
	overflow []int32
	ovfMin   Time
	pending  int
	// base is the wheel's reference time: every level's slot windows
	// are anchored at it, and it never exceeds the earliest pending
	// event. It can run ahead of the clock (see wheel.go).
	base int64

	// ready is the materialized dispatch bucket: the earliest one-tick
	// bucket, sorted by sequence number, drained from readyHead. All its
	// events share timestamp readyAt.
	ready     []int32
	readyHead int
	readyAt   Time

	// stats tracks scheduler high-water marks (never outcome-affecting).
	stats SchedStats

	// Process scheduling handshake. While a process goroutine runs, the
	// event loop blocks on parked, so exactly one goroutine ever touches
	// simulator state at a time.
	parked  chan struct{}
	current *Proc
	nprocs  int

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
	for p := uint64(s.stats.PeakPending); ; {
		cur := globalPeakPending.Load()
		if p <= cur || globalPeakPending.CompareAndSwap(cur, p) {
			break
		}
	}
}

// New returns an empty simulator with the clock at zero.
func New(opts ...Option) *Simulator {
	s := &Simulator{parked: make(chan struct{})}
	s.initWheel()
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Executed reports how many events have been dispatched so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// ProcSwitches reports how many goroutine handoffs (process wakes) this
// simulator has performed so far. Task wakes are ordinary events and do
// not count.
func (s *Simulator) ProcSwitches() uint64 { return s.procSwitches }

// Pending reports how many events are scheduled but not yet dispatched.
func (s *Simulator) Pending() int { return s.pending }

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
// (argFn, arg) pair. Both forms share the arena, sequence numbering and
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
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.events = append(s.events, event{})
		idx = int32(len(s.events) - 1)
	}
	s.seq++
	s.events[idx] = event{at: t, seq: s.seq, fn: fn, argFn: argFn, arg: arg}
	s.enqueue(idx, t)
}

// Stop makes Run return after the current event completes. Pending events
// stay queued; a subsequent Run resumes them.
func (s *Simulator) Stop() { s.stopped = true }

// Run dispatches events in (time, sequence) order until the heap is empty
// or Stop is called. It returns the time of the last dispatched event.
func (s *Simulator) Run() Time {
	return s.RunUntil(maxTime)
}

// RunUntil dispatches events with timestamps <= deadline, then advances
// the clock to min(deadline, last event time) and returns it. Events
// beyond the deadline remain pending.
func (s *Simulator) RunUntil(deadline Time) Time {
	s.stopped = false
	defer s.flushExecuted()
	for s.pending > 0 && !s.stopped {
		if at, _ := s.peekAt(); at > deadline {
			s.now = deadline
			return s.now
		}
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
	if s.now < deadline && deadline != maxTime {
		s.now = deadline
	}
	return s.now
}

// Step dispatches exactly one event if any is pending and reports whether
// it did so.
func (s *Simulator) Step() bool {
	if s.pending == 0 {
		return false
	}
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
	s.flushExecuted()
	return true
}
