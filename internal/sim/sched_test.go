package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// Black-box tests of the pending-event set's dispatch order. The
// TestWheel* tests keep the names they had under the hierarchical
// timing wheel the heap replaced; each pins an ordering shape that
// structure had to get right, and any scheduler must still order them
// by (time, sequence).

// far is a dispatch time 2^48 ns (about 3.3 simulated days) ahead:
// the old wheel's horizon, past which events took a separate path.
const far = int64(1) << 48

// TestWheelCrossLevelOrder schedules one batch of events whose delays
// range from one tick to several times far, and checks they fire in
// strict time order.
func TestWheelCrossLevelOrder(t *testing.T) {
	delays := []int64{
		0, 1, 2, 63, 64, 65, 4095, 4096, 4097,
		1e6, 1e6 + 1, 1e9, 1e12, 1e14,
		far - 1, far, far + 12345, 3 * far,
	}
	s := New()
	var fired []Time
	for _, d := range delays {
		s.Schedule(Duration(d), func() { fired = append(fired, s.Now()) })
	}
	s.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(fired), len(delays))
	}
	sorted := append([]int64(nil), delays...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, at := range fired {
		if at != Time(sorted[i]) {
			t.Fatalf("event %d fired at %d, want %d (order %v)", i, at, sorted[i], fired)
		}
	}
}

// TestWheelSameTickAcrossCascade checks FIFO within one tick when the
// tick's events are scheduled at different moments: two at start-up,
// one later from a nested callback.
func TestWheelSameTickAcrossCascade(t *testing.T) {
	s := New()
	var order []string
	s.At(10000, func() { order = append(order, "a") })
	s.At(2000, func() {
		s.At(10000, func() { order = append(order, "c") })
	})
	s.At(10000, func() { order = append(order, "b") })
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("same-tick order = %v, want %v", order, want)
		}
	}
}

// TestWheelDeadlineDemoteRebase cuts a run at a deadline ahead of the
// clock but before the earliest pending event, then schedules earlier
// events into the gap between the two; they must fire first.
func TestWheelDeadlineDemoteRebase(t *testing.T) {
	s := New()
	var fired []Time
	mark := func() { fired = append(fired, s.Now()) }
	for i := 0; i < 3; i++ {
		s.At(100, mark)
	}
	if end := s.RunUntil(50); end != 50 {
		t.Fatalf("RunUntil(50) = %v, want 50", end)
	}
	s.At(60, mark)
	s.At(55, mark)
	s.Run()
	want := []Time{55, 60, 100, 100, 100}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestWheelLevel0AheadOfBucket schedules, after a drained run, a later
// event before an earlier one (170, then 130); the earlier must fire
// first.
func TestWheelLevel0AheadOfBucket(t *testing.T) {
	s := New()
	var fired []Time
	mark := func() { fired = append(fired, s.Now()) }
	s.At(100, mark)
	s.At(101, mark)
	s.Run()
	s.At(170, mark)
	s.At(130, mark)
	s.Run()
	want := []Time{100, 101, 130, 170}
	for i := range want {
		if i >= len(fired) || fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestWheelOverflowOrdering checks events far in the future fire in
// order, both mixed with a near event and once they are all that
// remains.
func TestWheelOverflowOrdering(t *testing.T) {
	s := New()
	var fired []Time
	mark := func() { fired = append(fired, s.Now()) }
	s.At(Time(2*far+1), mark)
	s.At(Time(far+10), mark)
	s.At(5, mark)
	s.At(Time(2*far), mark)
	s.Run()
	want := []Time{5, Time(far + 10), Time(2 * far), Time(2*far + 1)}
	for i := range want {
		if i >= len(fired) || fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestWheelRandomAgainstTime hammers the scheduler with random delay
// sets, including nested reschedules, and checks count and time
// ordering.
func TestWheelRandomAgainstTime(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		n := rnd.Intn(200) + 1
		fired := 0
		last := Time(-1)
		var check func()
		check = func() {
			if s.Now() < last {
				t.Fatalf("seed %d: time went backwards: %v after %v", seed, s.Now(), last)
			}
			last = s.Now()
			fired++
			// Occasionally reschedule from inside a callback.
			if rnd.Intn(4) == 0 && fired < 4*n {
				s.Schedule(Duration(rnd.Intn(1<<20)), check)
			}
		}
		for i := 0; i < n; i++ {
			s.Schedule(Duration(rnd.Intn(1<<20)), check)
		}
		s.Run()
		if got := s.Pending(); got != 0 {
			t.Fatalf("seed %d: %d events still pending after Run", seed, got)
		}
	}
}

// TestSchedStats checks the scheduler's high-water mark and its
// process-wide aggregation.
func TestSchedStats(t *testing.T) {
	s := New()
	for i := 0; i < 40; i++ {
		s.At(7, func() {})
	}
	for i := 0; i < 10; i++ {
		s.Schedule(Duration(1000+i*4096), func() {})
	}
	s.Run()
	if got := s.PeakPending(); got != 50 {
		t.Fatalf("PeakPending = %d, want 50", got)
	}
	if GlobalPeakPending() < 50 {
		t.Fatalf("GlobalPeakPending = %d, want >= 50 after Run", GlobalPeakPending())
	}
}

// FuzzSchedulerOrdering feeds a random interleaved stream of
// Schedule/ScheduleArg/At/Step/RunUntil operations to the scheduler and
// to a reference model that picks the least (at, seq); the dispatch
// order must be identical, and a RunUntil must return its deadline.
func FuzzSchedulerOrdering(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 0, 3})
	f.Add([]byte{255, 255, 0, 255, 255, 1, 0, 0, 3, 0, 0, 3})
	f.Add([]byte{16, 0, 2, 0, 64, 3, 3, 232, 0, 0, 0, 3, 0, 0, 3})
	f.Add([]byte{0, 9, 0, 0, 9, 2, 0, 5, 4, 0, 1, 0, 0, 4, 4, 0, 0, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ref struct {
			at  Time
			seq int
			id  int
		}
		s := New()
		var pending []ref
		var got, want []int
		id, seq := 0, 0
		argFn := func(a any) { got = append(got, a.(int)) }
		// next returns the index of the reference's least (at, seq)
		// event; pending must be non-empty.
		next := func() int {
			best := 0
			for i := 1; i < len(pending); i++ {
				if pending[i].at < pending[best].at ||
					(pending[i].at == pending[best].at && pending[i].seq < pending[best].seq) {
					best = i
				}
			}
			return best
		}
		popRef := func(best int) {
			want = append(want, pending[best].id)
			pending = append(pending[:best], pending[best+1:]...)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			d := Duration(int(ops[i])<<8 | int(ops[i+1]))
			at := s.Now().Add(d)
			switch ops[i+2] % 5 {
			case 0:
				myid := id
				s.Schedule(d, func() { got = append(got, myid) })
			case 1:
				s.ScheduleArg(d, argFn, id)
			case 2:
				myid := id
				s.At(at, func() { got = append(got, myid) })
			case 3:
				if s.Step() {
					popRef(next())
				}
				continue
			case 4:
				// Everything due by the deadline runs; the clock ends
				// at the deadline.
				for len(pending) > 0 {
					best := next()
					if pending[best].at > at {
						break
					}
					popRef(best)
				}
				if end := s.RunUntil(at); end != at {
					t.Fatalf("RunUntil(%v) = %v", at, end)
				}
				continue
			}
			pending = append(pending, ref{at: at, seq: seq, id: id})
			id++
			seq++
		}
		for s.Step() {
			popRef(next())
		}
		if len(pending) != 0 || s.Pending() != 0 {
			t.Fatalf("reference has %d pending, scheduler %d after drain", len(pending), s.Pending())
		}
		if len(got) != len(want) {
			t.Fatalf("dispatched %d events, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dispatch order diverges at %d: got %v, want %v", i, got, want)
			}
		}
	})
}
