package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls, for at most ten seconds, until no more than want
// goroutines exist, and returns the last count. A goroutine Close ended
// has acknowledged, but may not have finished exiting, when Close
// returns.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// mustPanic runs fn and returns what it panicked with, failing the test
// if it returned normally.
func mustPanic(t *testing.T, what string, fn func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
	return nil
}

// TestCloseEndsParkedProcesses parks processes in both ways one can
// wait (a sleep and a spawn that never ran) and requires Close to end
// all of them: their goroutines exit, their deferred calls run, and the
// one process that returned on its own is left alone.
func TestCloseEndsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	deferred := 0
	park := func(name string) {
		s.Spawn(name, func(p *Proc) {
			defer func() { deferred++ }()
			p.Sleep(time.Hour)
			t.Errorf("process %s resumed", name)
		})
	}
	park("sleep1")
	park("sleep2")
	returned := s.Spawn("returns", func(p *Proc) { p.Sleep(1) })
	s.RunUntil(Time(time.Minute))
	s.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	if !returned.dead || len(s.procs) != 3 {
		t.Fatalf("before Close: %d live processes, returned one dead=%v; want 3 live and it dead",
			len(s.procs), returned.dead)
	}
	s.Close()
	if len(s.procs) != 0 || deferred != 2 {
		t.Fatalf("after Close: %d live processes, %d deferred calls ran; want 0 and 2", len(s.procs), deferred)
	}
	if n := waitGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Close, %d before the simulation", n, base)
	}
}

// TestCloseThenRunPanics: a closed simulator refuses to dispatch the
// events still queued for its ended processes, and a second Close does
// nothing.
func TestCloseThenRunPanics(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) { p.Sleep(time.Hour) })
	s.RunUntil(1)
	s.Close()
	s.Close()
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Run", func() { s.Run() }},
		{"RunUntil", func() { s.RunUntil(Time(2 * time.Hour)) }},
		{"Step", func() { s.Step() }},
	} {
		if r := mustPanic(t, c.name+" after Close", c.run); r != "sim: run of a closed simulator" {
			t.Errorf("%s after Close panicked with %v", c.name, r)
		}
	}
}

// TestProcPanicReachesRunCaller: a panic in a process body surfaces on
// the goroutine that called RunUntil, where recover catches it; the
// message names the process and carries the value and the process's
// stack; and a deferred Close still ends the other processes.
func TestProcPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		value any
		want  string
	}{
		{"boom", "boom"},
		{nil, "panic called with nil argument"}, // not mistaken for Close's Goexit
	} {
		s := New()
		s.Spawn("bystander", func(p *Proc) { p.Sleep(time.Hour) })
		s.Spawn("faulty", func(p *Proc) {
			p.Sleep(10)
			panic(tc.value)
		})
		r := mustPanic(t, "RunUntil over a panicking process", func() {
			defer s.Close()
			s.RunUntil(Time(time.Minute))
		})
		msg, _ := r.(string)
		for _, part := range []string{`sim: process "faulty" panicked: ` + tc.want, "TestProcPanicReachesRunCaller"} {
			if !strings.Contains(msg, part) {
				t.Fatalf("panic %q lacks %q", msg, part)
			}
		}
		if len(s.procs) != 0 || s.Now() != 10 {
			t.Fatalf("after the panic: %d live processes at %v, want 0 at 10ns", len(s.procs), s.Now())
		}
	}
	if n := waitGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Close, %d before the simulations", n, base)
	}
}
