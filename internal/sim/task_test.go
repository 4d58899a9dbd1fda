package sim

import (
	"testing"
	"time"
)

// parkingProc spawns a process that appends tag to *log on every wake and
// parks again, then runs the simulator until the process reaches its
// first park.
func parkingProc(s *Simulator, tag string, log *[]string) *Proc {
	p := s.Spawn(tag, func(p *Proc) {
		for {
			p.park()
			*log = append(*log, tag)
		}
	})
	s.Run()
	return p
}

// TestTaskProcWakeOrder proves the tentpole invariant: a Task wake and a
// Proc wake are the same event shape, so same-time wakes dispatch in
// strict push (sequence) order regardless of which kind of context they
// resume.
func TestTaskProcWakeOrder(t *testing.T) {
	s := New()
	var log []string
	p := parkingProc(s, "proc", &log)

	task := s.NewTask("task")
	task.OnWake(func() { log = append(log, "task") })

	// Interleave same-time wakes; dispatch order must equal push order.
	task.Wake()
	s.Wake(p)
	task.Wake()
	s.Wake(p)
	task.Wake()
	s.Run()

	want := []string{"task", "proc", "task", "proc", "task"}
	if len(log) != len(want) {
		t.Fatalf("got %d wakes %v, want %v", len(log), log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("wake order %v, want %v", log, want)
		}
	}
}

// TestTaskProcTimeOrder checks that time still dominates sequence: a task
// wake pushed first but timestamped later dispatches after a proc wake
// pushed second at an earlier time, and vice versa.
func TestTaskProcTimeOrder(t *testing.T) {
	s := New()
	var log []string
	p := parkingProc(s, "proc", &log)

	task := s.NewTask("task")
	task.OnWake(func() { log = append(log, "task") })

	task.WakeAfter(2 * time.Microsecond) // pushed first, fires second
	s.ScheduleArg(time.Microsecond, resumeProc, p)
	s.Run()

	base := s.Now()
	task.WakeAt(base.Add(time.Microsecond)) // pushed first, fires first
	s.ScheduleArg(2*time.Microsecond, resumeProc, p)
	s.Run()

	want := []string{"proc", "task", "task", "proc"}
	for i := range want {
		if i >= len(log) || log[i] != want[i] {
			t.Fatalf("wake order %v, want %v", log, want)
		}
	}
}

// TestTaskStartMirrorsSpawn checks that Start pushes exactly one event,
// ordered against a Spawn by push order alone — converted code that swaps
// a Spawn for a Start keeps its schedule.
func TestTaskStartMirrorsSpawn(t *testing.T) {
	s := New()
	var log []string

	task := s.NewTask("task")
	task.Start(func() { log = append(log, "task") })
	s.Spawn("proc", func(p *Proc) { log = append(log, "proc") })
	before := s.Pending()
	if before != 2 {
		t.Fatalf("Start+Spawn left %d events pending, want 2", before)
	}
	s.Run()

	want := []string{"task", "proc"}
	for i := range want {
		if i >= len(log) || log[i] != want[i] {
			t.Fatalf("start order %v, want %v", log, want)
		}
	}
}

// TestTaskOnWakeSticky checks that a continuation stays installed across
// wakes until replaced: state machines install one step per phase, not
// one per wake.
func TestTaskOnWakeSticky(t *testing.T) {
	s := New()
	task := s.NewTask("task")
	n := 0
	task.OnWake(func() { n++ })
	task.Wake()
	task.Wake()
	s.Run()
	task.Wake()
	s.Run()
	if n != 3 {
		t.Fatalf("continuation ran %d times, want 3", n)
	}
}

// TestCompletionWaitTask covers both WaitTask paths: already-fired
// (returns false, caller continues inline, no event pushed) and suspend
// (returns true, Complete wakes the task's continuation).
func TestCompletionWaitTask(t *testing.T) {
	s := New()
	task := s.NewTask("task")

	fired := s.NewCompletion()
	fired.Complete()
	if fired.WaitTask(task, func() { t.Fatal("continuation must not be installed on the fired path") }) {
		t.Fatal("WaitTask on a fired completion must return false")
	}
	if s.Pending() != 0 {
		t.Fatalf("fired-path WaitTask pushed %d events, want 0", s.Pending())
	}

	c := s.NewCompletion()
	ran := false
	if !c.WaitTask(task, func() { ran = true }) {
		t.Fatal("WaitTask on an unfired completion must return true")
	}
	if ran {
		t.Fatal("continuation ran before Complete")
	}
	c.Complete()
	s.Run()
	if !ran {
		t.Fatal("Complete did not wake the waiting task")
	}
}

// TestCompletionSecondWaiterTaskPanics checks the one-waiter contract
// holds across kinds: a task waiting behind an existing waiter panics.
func TestCompletionSecondWaiterTaskPanics(t *testing.T) {
	s := New()
	c := s.NewCompletion()
	c.WaitTask(s.NewTask("first"), func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("second WaitTask did not panic")
		}
	}()
	c.WaitTask(s.NewTask("second"), func() {})
}

// TestWakeAny checks the completion waiter's wake-up: it wakes both
// kinds of context and rejects anything else.
func TestWakeAny(t *testing.T) {
	s := New()
	var log []string
	p := parkingProc(s, "proc", &log)
	task := s.NewTask("task")
	task.OnWake(func() { log = append(log, "task") })

	s.wakeAny(task)
	s.wakeAny(p)
	s.Run()
	want := []string{"task", "proc"}
	for i := range want {
		if i >= len(log) || log[i] != want[i] {
			t.Fatalf("wakeAny order %v, want %v", log, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("wakeAny of a non-waiter did not panic")
		}
	}()
	s.wakeAny(42)
}

// TestProcSwitchCounting checks the observability contract: every proc
// wake is one goroutine handoff, task wakes are free, and the per-sim
// counter flushes into the process-wide one on the Run/Step cadence.
func TestProcSwitchCounting(t *testing.T) {
	s := New()
	var log []string
	p := parkingProc(s, "proc", &log)
	base := s.ProcSwitches() // spawn handoff

	task := s.NewTask("task")
	task.OnWake(func() {})

	globalBase := GlobalProcSwitches()
	s.Wake(p)
	task.Wake()
	s.Wake(p)
	task.Wake()
	s.Run()

	if got := s.ProcSwitches() - base; got != 2 {
		t.Fatalf("ProcSwitches grew by %d, want 2 (task wakes must not count)", got)
	}
	if got := GlobalProcSwitches() - globalBase; got != 2 {
		t.Fatalf("GlobalProcSwitches grew by %d, want 2", got)
	}
}

// TestAwaitResumesInline pins the Done/Await contract the blocking
// transport rests on: the callback resumes the process inside the event
// that fires it and pushes nothing, so the process sees that event's
// time and no further event is dispatched before it runs.
func TestAwaitResumesInline(t *testing.T) {
	s := New()
	task := s.NewTask("task")
	var firedAt, resumedAt uint64
	var now Time
	s.Spawn("proc", func(p *Proc) {
		done := p.Done()
		task.OnWake(func() {
			firedAt = s.Executed()
			done()
		})
		task.WakeAfter(5)
		p.Await()
		resumedAt, now = s.Executed(), p.Now()
	})
	s.Run()
	if now != 5 || resumedAt != firedAt {
		t.Fatalf("resumed at %v after event %d, want 5 inside event %d", now, resumedAt, firedAt)
	}
	if got := s.ProcSwitches(); got != 2 {
		t.Fatalf("ProcSwitches = %d, want 2 (spawn and the inline resume)", got)
	}
}

// TestAwaitAfterFire checks the synchronous case: a continuation that
// finishes before the process awaits lets Await return without parking.
func TestAwaitAfterFire(t *testing.T) {
	s := New()
	s.Spawn("proc", func(p *Proc) {
		p.Done()()
		p.Await()
		p.Sleep(1)
	})
	if end := s.Run(); end != 1 || s.ProcSwitches() != 2 {
		t.Fatalf("end %v after %d switches, want 1 after 2 (spawn and the sleep)", end, s.ProcSwitches())
	}
}

// TestDoneMisusePanics covers the three protocol errors: a second fire,
// Await without Done, and a fire from another process's goroutine while
// the process is parked.
func TestDoneMisusePanics(t *testing.T) {
	s := New()
	recovered := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}
	var doneA func()
	finished := false
	s.Spawn("a", func(p *Proc) {
		doneA = p.Done()
		p.Await()
		finished = true
	})
	s.Spawn("b", func(p *Proc) {
		if recovered(doneA) == nil {
			t.Error("done callback fired from a process goroutine did not panic")
		}
		s.Schedule(0, doneA) // fired from an event, it resumes a
		done := p.Done()
		done()
		if recovered(done) == nil {
			t.Error("second fire did not panic")
		}
		p.Await()
		if recovered(p.Await) == nil {
			t.Error("Await without Done did not panic")
		}
	})
	s.Run()
	if !finished {
		t.Fatal("process a never resumed")
	}
}
