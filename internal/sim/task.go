package sim

import "sync/atomic"

// Task is an event-driven continuation: the goroutine-free counterpart of
// Proc for steady-state hot loops. Where a Proc parks its goroutine at
// every blocking point (two host context switches per simulated wake), a
// Task is a plain state machine whose current continuation runs to
// completion on the event-loop goroutine — a wake is one ordinary event
// dispatch, with no channel handoff.
//
// A Task shares the event shape of every Proc wake-up: waking it pushes
// one pre-bound (func(any), arg) event through ScheduleArg, exactly as
// resumeProc does. Sequence numbers depend only on push order, so code
// converted from a Proc to a Task schedules byte-identically as long as
// it performs the same pushes at the same points (the golden corpus pins
// this end-to-end).
//
// Protocol: before any operation that can suspend, the current state
// machine installs its step function with OnWake (suspending helpers such
// as cpu.ExecTask and Completion.WaitTask take the continuation
// explicitly). The step function then returns; the scheduled wake event
// re-enters it. Continuations must be pre-bound (method values stored
// once at construction) so the steady state allocates nothing.
type Task struct {
	sim  *Simulator
	name string
	cont func()
}

// NewTask returns an idle task. It does not schedule anything: call
// Start, or install a continuation with OnWake and wake it explicitly.
func (s *Simulator) NewTask(name string) *Task {
	return &Task{sim: s, name: name}
}

// Name returns the label the task was created with.
func (t *Task) Name() string { return t.name }

// Sim returns the owning simulator.
func (t *Task) Sim() *Simulator { return t.sim }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.sim.now }

// SetName relabels the task (observability only; outcomes never depend
// on the name).
func (t *Task) SetName(name string) { t.name = name }

// OnWake installs fn as the continuation the next wake runs. The
// continuation stays installed across wakes until replaced, so a state
// machine that suspends repeatedly installs its step once per phase, not
// once per wake.
func (t *Task) OnWake(fn func()) { t.cont = fn }

// Start installs fn and schedules the task's first wake at the current
// time — one event push, mirroring what Spawn pushes for a Proc.
func (t *Task) Start(fn func()) {
	t.cont = fn
	t.Wake()
}

// Wake schedules the task's continuation to run at the current time,
// behind already-pending same-time events.
//
//ioat:hotpath
func (t *Task) Wake() { t.sim.ScheduleArg(0, resumeTask, t) }

// WakeAfter schedules the continuation after virtual duration d.
//
//ioat:hotpath
func (t *Task) WakeAfter(d Duration) { t.sim.ScheduleArg(d, resumeTask, t) }

// WakeAt schedules the continuation at absolute time at.
//
//ioat:hotpath
func (t *Task) WakeAt(at Time) { t.sim.AtArg(at, resumeTask, t) }

// resumeTask is the pre-bound callback behind every task wake-up — the
// same zero-allocation event shape as resumeProc, dispatched in the same
// (time, sequence) order, but running the continuation directly on the
// event-loop goroutine instead of handing off to a parked goroutine.
//
//ioat:hotpath
func resumeTask(a any) {
	t := a.(*Task)
	if t.sim.procProbe != nil {
		t.sim.procProbe.ProcRun(t.name, t.sim.now)
	}
	t.cont()
}

// wakeAny schedules a completion's waiter — a *Proc parked in Wait or
// an idle *Task — to resume at the current time. Both arms push the same
// single pre-bound event.
//
//ioat:hotpath
func (s *Simulator) wakeAny(w any) {
	switch v := w.(type) {
	case *Proc:
		s.ScheduleArg(0, resumeProc, v)
	case *Task:
		s.ScheduleArg(0, resumeTask, v)
	default:
		panic("sim: wakeAny of something that is neither *Proc nor *Task")
	}
}

// globalProcSwitches accumulates goroutine handoffs (runProc calls, each
// costing two host context switches: event loop -> process goroutine and
// back) across every simulator in the process, flushed once per
// Run/RunUntil/Step like globalExecuted. Task wakes never count — that
// is the point of Tasks — so the counter measures exactly the scheduler
// overhead the continuation conversion removes. Outcomes never depend on
// it.
var globalProcSwitches atomic.Uint64

// GlobalProcSwitches reports the total event-loop-to-goroutine handoffs
// performed by all simulators in this process so far.
func GlobalProcSwitches() uint64 { return globalProcSwitches.Load() }
