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

// TestTaskProcWakeOrder: a Task wake and a Proc wake are the same event
// shape, so same-time wakes dispatch in strict push (sequence) order
// regardless of which kind of context they resume.
func TestTaskProcWakeOrder(t *testing.T) {
	s := New()
	var log []string
	p := parkingProc(s, "proc", &log)

	task := s.NewTask("task")
	task.OnWake(func() { log = append(log, "task") })

	// Interleave same-time wakes; dispatch order must equal push order.
	task.Wake()
	s.ScheduleArg(0, resumeProc, p)
	task.Wake()
	s.ScheduleArg(0, resumeProc, p)
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
// ordered against a Spawn by push order alone, so code that swaps a
// Spawn for a Start keeps its schedule.
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

// TestCompletionSecondWaiterTaskPanics checks the one-waiter contract:
// a task waiting behind an existing waiter panics.
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

// TestProcSwitchCounting checks the observability contract: every proc
// wake is one goroutine handoff, task wakes are free, and the per-sim
// counter flushes into the process-wide one on the Run/Step cadence.
func TestProcSwitchCounting(t *testing.T) {
	s := New()
	var log []string
	p := parkingProc(s, "proc", &log)
	base := s.procSwitches // spawn handoff

	task := s.NewTask("task")
	task.OnWake(func() {})

	globalBase := GlobalProcSwitches()
	s.ScheduleArg(0, resumeProc, p)
	task.Wake()
	s.ScheduleArg(0, resumeProc, p)
	task.Wake()
	s.Run()

	if got := s.procSwitches - base; got != 2 {
		t.Fatalf("procSwitches grew by %d, want 2 (task wakes must not count)", got)
	}
	if got := GlobalProcSwitches() - globalBase; got != 2 {
		t.Fatalf("GlobalProcSwitches grew by %d, want 2", got)
	}
}
