package main

import (
	"math"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"time"
)

// refYardstick is about the yardstick's time on the calibration host (a
// 2-vCPU Xeon guest) in a calm period. Host times are reported as if the
// run's median yardstick had taken this long; see endToEndMetrics.
const refYardstick = 20 * time.Millisecond

var yardstickSink uint64

// yardstick measures how fast the host runs the kind of code the
// simulator is made of, and returns the fastest of three repetitions.
// Other tenants of a shared host can make the simulator take twice as
// long for minutes at a time, longer than a run. The yardstick is fixed
// code of the benchmark's own, so it does the same work at every commit
// of the simulator: sorting 100k random numbers and 500k lookups in a
// 64k-entry map, branchy work on a working set about the size of the
// core's L2 cache. In calibration its time rose and fell with the simulator's at a
// slope near 1 (correlation 0.86 to 0.91). An arithmetic loop moved a
// third to a half as much, and a walk through 8 MB of memory barely
// followed at all (correlation 0.2 to 0.5).
//
// It runs after the round has been measured, with the garbage collector
// stopped, so the round's leftover heap does not time it.
func yardstick() time.Duration {
	debug.SetGCPercent(-1) // also waits for a collection in progress
	r := rand.New(rand.NewPCG(1, 2))
	data := make([]uint32, 100_000)
	for i := range data {
		data[i] = r.Uint32()
	}
	m := map[uint32]uint32{}
	for i := range uint32(64 << 10) {
		m[r.Uint32()%(256<<10)] = i
	}
	work := make([]uint32, len(data))
	best := time.Duration(math.MaxInt64)
	for range 3 {
		t0 := time.Now()
		copy(work, data)
		slices.Sort(work)
		var s uint32
		for i := range uint32(500_000) {
			s += m[(i*2654435761)%(256<<10)]
		}
		yardstickSink += uint64(work[len(work)/2] + s)
		best = min(best, time.Since(t0))
	}
	return best
}
