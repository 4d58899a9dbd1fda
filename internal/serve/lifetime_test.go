package serve

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/sim"
)

// TestExtIPCJobsLeaveNoGoroutines submits ten extipc jobs, whose
// simulations end with their producer and consumer tasks still waiting,
// at distinct seeds so that none is served from the point cache. Once
// the daemon is idle again, it must run no more goroutines than before
// the first job: a simulation starts none, and each job's clusters are
// closed, so nothing a job simulated stays running.
func TestExtIPCJobsLeaveNoGoroutines(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := runtime.NumGoroutine()
	for seed := uint64(1); seed <= 10; seed++ {
		j, err := s.Submit(bench.Request{Runners: []string{"extipc"}, Seed: seed, Scale: 0.05, Parallel: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := j.State(); st != StateDone {
			t.Fatalf("job at seed %d ended %s", seed, st)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines with the daemon idle after ten jobs, %d before them", n, base)
	}
}

// TestProcessPanicFailsOnlyItsJob: a simulation task that panics fails
// the job running it, and the daemon goes on to serve the next job. The
// panic unwinds the event loop into the job's runner, where the daemon
// recovers it.
func TestProcessPanicFailsOnlyItsJob(t *testing.T) {
	s := New(Options{Workers: 1})
	faulty := bench.Runner{ID: "faulty", Run: func(bench.Config) *bench.Result {
		sm := sim.New()
		defer sm.Close()
		bystander := sm.NewTask("bystander")
		bystander.OnWake(func() {})
		bystander.WakeAfter(time.Hour)
		faulty := sm.NewTask("faulty")
		faulty.OnWake(func() { panic("boom") })
		faulty.WakeAfter(1)
		sm.Run()
		return nil
	}}
	first := true
	s.run = func(j *Job) {
		if first {
			first = false
			j.runners = []bench.Runner{faulty}
		}
		s.runJob(j)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	for i, want := range []State{StateFailed, StateDone} {
		j, err := s.Submit(bench.Request{Runners: []string{"fig6"}, Seed: 1, Scale: 0.05, Parallel: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		st := j.Status(false)
		if st.State != want {
			t.Fatalf("job %d ended %s (%q), want %s", i+1, st.State, st.Error, want)
		}
		if want == StateFailed && !strings.Contains(st.Error, "boom") {
			t.Fatalf("failed job's error %q does not carry the task's panic", st.Error)
		}
	}
}
