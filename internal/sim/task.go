package sim

// Task is an event-driven continuation, the simulator's one execution
// model: a plain state machine whose current continuation runs to
// completion on the event-loop goroutine, so a wake is one ordinary
// event dispatch and no simulation code starts a goroutine.
//
// Waking a task pushes one pre-bound (func(any), arg) event through
// ScheduleArg. Sequence numbers depend only on push order, so two pieces
// of code that perform the same pushes at the same points schedule
// byte-identically (the golden corpus pins this end-to-end; DESIGN §4g
// lists the push each operation makes).
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
// time: one event push.
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

// resumeTask is the pre-bound callback behind every task wake-up: a
// zero-allocation event that runs the continuation directly on the
// event-loop goroutine.
//
//ioat:hotpath
func resumeTask(a any) {
	t := a.(*Task)
	if t.sim.procProbe != nil {
		t.sim.procProbe.ProcRun(t.name, t.sim.now)
	}
	t.cont()
}

// Completion is a one-shot synchronization point: one waiting task, one
// signal (a DMA transfer, for example).
type Completion struct {
	done   bool
	waiter *Task
}

// NewCompletion returns an unfired one-shot completion.
func (s *Simulator) NewCompletion() *Completion {
	return &Completion{}
}

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.done }

// Complete fires the completion, waking the waiting task if there is
// one: one event push at the current time. Completing twice panics: that
// always indicates a protocol bug.
//
//ioat:hotpath
func (c *Completion) Complete() {
	if c.done {
		panic("sim: completion fired twice")
	}
	c.done = true
	if w := c.waiter; w != nil {
		c.waiter = nil
		w.Wake()
	}
}

// Reset rearms a fired completion for reuse, so pools can recycle
// completions instead of allocating one per transfer. It panics if the
// completion has not fired or still has a waiting task — recycling an
// in-flight completion would strand its waiter forever.
//
//ioat:hotpath
func (c *Completion) Reset() {
	if !c.done {
		panic("sim: reset of an unfired completion")
	}
	if c.waiter != nil {
		panic("sim: reset of a completion with a parked waiter")
	}
	c.done = false
}

// WaitTask waits for the completion on task t. If the completion has
// already fired it returns false, pushes nothing, and the caller
// continues inline; otherwise it installs cont as t's continuation,
// registers t as the waiter, and returns true — the caller must suspend,
// and Complete will wake t. Only one task may wait.
//
//ioat:hotpath
func (c *Completion) WaitTask(t *Task, cont func()) bool {
	if c.done {
		return false
	}
	if c.waiter != nil {
		panic("sim: second waiter on completion")
	}
	t.OnWake(cont)
	c.waiter = t
	return true
}

// WaitThen is WaitTask for code off the hot path: next runs once the
// completion has fired, inline if it already has.
func (c *Completion) WaitThen(t *Task, next func()) {
	if !c.WaitTask(t, next) {
		next()
	}
}
