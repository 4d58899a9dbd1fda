package cpu

import (
	"math"
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/sim"
)

func newCPU(cores int) (*sim.Simulator, *CPU) {
	s := sim.New()
	p := cost.Default()
	p.Cores = cores
	return s, New(s, p)
}

func TestSubmitRunsAfterWork(t *testing.T) {
	s, c := newCPU(1)
	var doneAt sim.Time = -1
	c.Submit(100*time.Nanosecond, func() { doneAt = s.Now() })
	s.Run()
	if doneAt != 100 {
		t.Fatalf("doneAt = %v, want 100", doneAt)
	}
}

func TestSubmitSerializesOnOneCore(t *testing.T) {
	s, c := newCPU(1)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		c.Submit(100*time.Nanosecond, func() { ends = append(ends, s.Now()) })
	}
	s.Run()
	want := []sim.Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestSubmitSpreadsAcrossCores(t *testing.T) {
	s, c := newCPU(4)
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		c.Submit(100*time.Nanosecond, func() { ends = append(ends, s.Now()) })
	}
	s.Run()
	for _, e := range ends {
		if e != 100 {
			t.Fatalf("ends = %v, want all 100 (parallel)", ends)
		}
	}
}

func TestSubmitOnPinsCore(t *testing.T) {
	s, c := newCPU(4)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		c.SubmitOn(0, 100*time.Nanosecond, func() { ends = append(ends, s.Now()) })
	}
	s.Run()
	if ends[2] != 300 {
		t.Fatalf("pinned work did not serialize: %v", ends)
	}
}

// TestExecBlocksProcess: ExecTask suspends the task until its work
// completes, and lets work that completes at once continue inline,
// pushing nothing.
func TestExecBlocksProcess(t *testing.T) {
	s, c := newCPU(1)
	task := s.NewTask("w")
	var after sim.Time = -1
	if !c.ExecTask(task, func() { after = s.Now() }, 250*time.Nanosecond) {
		t.Fatal("ExecTask of 250ns of work did not suspend")
	}
	s.Run()
	if after != 250 {
		t.Fatalf("after = %v, want 250", after)
	}
	if c.ExecTask(task, func() { t.Error("zero work suspended") }, 0) || s.Pending() != 0 {
		t.Fatalf("ExecTask of zero work suspended or pushed %d events", s.Pending())
	}
}

func TestExecContendsWithSubmit(t *testing.T) {
	s, c := newCPU(1)
	c.Submit(100*time.Nanosecond, nil)
	var after sim.Time = -1
	c.ExecThen(s.NewTask("w"), 50*time.Nanosecond, func() { after = s.Now() })
	s.Run()
	if after != 150 {
		t.Fatalf("after = %v, want 150 (queued behind submit)", after)
	}
}

func TestUtilizationFullyBusy(t *testing.T) {
	s, c := newCPU(2)
	// Keep both cores busy for 1000ns, then measure at 1000.
	c.SubmitOn(0, 1000*time.Nanosecond, nil)
	c.SubmitOn(1, 1000*time.Nanosecond, nil)
	s.Schedule(1000*time.Nanosecond, func() {
		if u := c.Utilization(); math.Abs(u-1.0) > 1e-9 {
			t.Errorf("utilization = %v, want 1.0", u)
		}
	})
	s.Run()
}

func TestUtilizationHalf(t *testing.T) {
	s, c := newCPU(2)
	c.SubmitOn(0, 1000*time.Nanosecond, nil) // core 1 idle
	s.Schedule(1000*time.Nanosecond, func() {
		if u := c.Utilization(); math.Abs(u-0.5) > 1e-9 {
			t.Errorf("utilization = %v, want 0.5", u)
		}
	})
	s.Run()
}

func TestUtilizationWindow(t *testing.T) {
	s, c := newCPU(1)
	c.SubmitOn(0, 400*time.Nanosecond, nil)
	s.Schedule(400*time.Nanosecond, func() { c.ResetWindow() })
	// Idle 400..800, busy 800..1000.
	s.Schedule(800*time.Nanosecond, func() { c.SubmitOn(0, 200*time.Nanosecond, nil) })
	s.Schedule(1200*time.Nanosecond, func() {
		// Window [400,1200]: busy 200 of 800 -> 0.25.
		if u := c.Utilization(); math.Abs(u-0.25) > 1e-9 {
			t.Errorf("windowed utilization = %v, want 0.25", u)
		}
	})
	s.Run()
}

func TestUtilizationMidWork(t *testing.T) {
	s, c := newCPU(1)
	c.SubmitOn(0, 1000*time.Nanosecond, nil)
	s.Schedule(500*time.Nanosecond, func() {
		// Half the work has elapsed: utilization so far is 1.0.
		if u := c.Utilization(); math.Abs(u-1.0) > 1e-9 {
			t.Errorf("mid-work utilization = %v, want 1.0", u)
		}
	})
	s.Run()
}

func TestBacklog(t *testing.T) {
	s, c := newCPU(1)
	c.SubmitOn(0, 300*time.Nanosecond, nil)
	c.SubmitOn(0, 200*time.Nanosecond, nil)
	if got := c.Backlog(0); got != 500*time.Nanosecond {
		t.Fatalf("backlog = %v, want 500ns", got)
	}
	s.Schedule(500*time.Nanosecond, func() {
		if got := c.Backlog(0); got != 0 {
			t.Errorf("backlog after drain = %v, want 0", got)
		}
	})
	s.Run()
}

func TestBusyTime(t *testing.T) {
	s, c := newCPU(4)
	c.Submit(100*time.Nanosecond, nil)
	c.Submit(200*time.Nanosecond, nil)
	s.Schedule(200*time.Nanosecond, func() {
		if got := c.BusyTime(); got != 300*time.Nanosecond {
			t.Errorf("busy = %v, want 300ns", got)
		}
	})
	s.Run()
}

func TestNegativeWorkPanics(t *testing.T) {
	_, c := newCPU(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative work did not panic")
		}
	}()
	c.Submit(-1, nil)
}

func TestWakeCostGrowsWithOversubscription(t *testing.T) {
	_, c := newCPU(4)
	base := c.WakeCost()
	for i := 0; i < 4; i++ {
		c.RegisterThread() // up to core count: no penalty
	}
	if c.WakeCost() != base {
		t.Fatal("penalty before oversubscription")
	}
	for i := 0; i < 8; i++ {
		c.RegisterThread()
	}
	at12 := c.WakeCost()
	if at12 <= base {
		t.Fatal("no penalty at 3x oversubscription")
	}
	for i := 0; i < 244; i++ {
		c.RegisterThread()
	}
	at256 := c.WakeCost()
	if at256 <= at12 {
		t.Fatal("penalty not monotone")
	}
	// Logarithmic: 256 threads must not cost 20x the 12-thread wake.
	if at256 > 20*at12 {
		t.Fatalf("penalty explodes: %v vs %v", at256, at12)
	}
	for i := 0; i < 256; i++ {
		c.UnregisterThread()
	}
	if c.Threads() != 0 || c.WakeCost() != base {
		t.Fatal("unregister did not restore base cost")
	}
}

func TestUnregisterUnderflowPanics(t *testing.T) {
	_, c := newCPU(2)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	c.UnregisterThread()
}

func TestCoreUtilizationPerCore(t *testing.T) {
	s, c := newCPU(2)
	c.SubmitOn(0, 800*time.Nanosecond, nil)
	c.SubmitOn(1, 200*time.Nanosecond, nil)
	s.Schedule(800*time.Nanosecond, func() {
		if u := c.CoreUtilization(0); math.Abs(u-1.0) > 1e-9 {
			t.Errorf("core0 = %v", u)
		}
		if u := c.CoreUtilization(1); math.Abs(u-0.25) > 1e-9 {
			t.Errorf("core1 = %v", u)
		}
	})
	s.Run()
}
