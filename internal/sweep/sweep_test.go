package sweep

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ioatsim/internal/sim"
)

func TestRunOrdersResultsByIndex(t *testing.T) {
	for _, parallel := range []int{1, 2, 8, 0} {
		got := Run(parallel, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if got := Run(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	got := Run(4, 1, func(i int) string { return "only" })
	if len(got) != 1 || got[0] != "only" {
		t.Fatalf("n=1 returned %v", got)
	}
}

func TestRunCallsEachIndexOnce(t *testing.T) {
	var calls [64]int32
	Run(8, len(calls), func(i int) struct{} {
		atomic.AddInt32(&calls[i], 1)
		return struct{}{}
	})
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var cur, peak int32
	Run(3, 50, func(i int) struct{} {
		n := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		runtime.Gosched()
		atomic.AddInt32(&cur, -1)
		return struct{}{}
	})
	if peak > 3 {
		t.Fatalf("observed %d concurrent points, limit 3", peak)
	}
}

func TestRunPropagatesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	Run(4, 10, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

// TestPanicStopsTheSweep: once a point panics, no further point starts.
// Point 0 panics while point 1 is in flight on the other worker; point 1
// finishes, and the panic reaches the caller.
func TestPanicStopsTheSweep(t *testing.T) {
	var ran atomic.Int32
	second := make(chan struct{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic not propagated")
			}
		}()
		Run(2, 20, func(i int) int {
			ran.Add(1)
			switch i {
			case 0:
				<-second
				panic("boom")
			case 1:
				close(second)
			}
			time.Sleep(time.Millisecond)
			return i
		})
	}()
	if n := ran.Load(); n > 4 {
		t.Fatalf("%d of 20 points ran after a panic at point 0, want at most 4", n)
	}
}

// TestRunPropagatesProcessPanics: a panic inside a point's simulation
// task runs in an event on the worker's goroutine, unwinds the point's
// RunUntil and reaches the caller like any other point panic, past each
// point's deferred Close.
func TestRunPropagatesProcessPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("process panic not propagated")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "boom") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	Run(2, 4, func(i int) int {
		s := sim.New()
		defer s.Close()
		bystander := s.NewTask("bystander")
		bystander.OnWake(func() {})
		bystander.WakeAfter(time.Hour)
		faulty := s.NewTask("faulty")
		faulty.OnWake(func() {
			if i == 3 {
				panic("boom")
			}
		})
		faulty.WakeAfter(time.Duration(i))
		return int(s.RunUntil(sim.Time(time.Minute)))
	})
}

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(0) should resolve to GOMAXPROCS")
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(<0) should resolve to GOMAXPROCS")
	}
	if Workers(5) != 5 {
		t.Fatal("Workers(5) != 5")
	}
}
