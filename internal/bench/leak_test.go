package bench

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls, for at most ten seconds, until no more than want
// goroutines exist, and returns the last count.
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

// TestRepeatedRunsLeaveNothing runs figures whose simulations end with
// tasks still waiting (data-center accept loops, PVFS clients, IPC
// producers) several times in one process, as a sweep or the daemon
// does. A simulation starts no goroutines and every cluster is closed,
// so each run must leave no goroutine behind and the live heap must
// stay near its size after the first run.
func TestRepeatedRunsLeaveNothing(t *testing.T) {
	const slack = 4 << 20 // bytes of heap growth tolerated after the first run
	runs := 4
	if raceEnabled {
		runs = 2 // fig8a alone takes ~20 s a run under the race detector
	}
	for _, id := range []string{"fig8a", "fig12", "extipc"} {
		r, _ := Find(id)
		base := runtime.NumGoroutine()
		var first uint64
		for i := 0; i < runs; i++ {
			r.Run(Config{Seed: 1, Scale: 0.05, Parallel: 1})
			if n := waitGoroutines(base); n > base {
				t.Fatalf("%s run %d left %d goroutines, %d before it", id, i+1, n, base)
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if i == 0 {
				first = ms.HeapInuse
			} else if ms.HeapInuse > first+slack {
				t.Fatalf("%s run %d: %.1f MB heap in use, %.1f MB after the first run",
					id, i+1, float64(ms.HeapInuse)/(1<<20), float64(first)/(1<<20))
			}
		}
	}
}
