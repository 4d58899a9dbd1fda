package sim

import (
	"testing"
	"time"
)

// BenchmarkSchedule measures one schedule+dispatch round trip through the
// heap. Steady state must be allocation-free: the heap slot freed by
// Step is reused by the next Schedule, and the closure is hoisted out of
// the loop, as hot simulation code does.
func BenchmarkSchedule(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Nanosecond, fn)
		s.Step()
	}
}

// benchScheduleDepth times one Schedule+Step with depth events always
// pending: timers 1 µs apart, each new one scheduled later than all of
// them.
func benchScheduleDepth(b *testing.B, depth int, later time.Duration) {
	s := New()
	fn := func() {}
	for i := 0; i < depth; i++ {
		s.Schedule(time.Duration(i+1)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(later, fn)
		s.Step()
	}
}

// BenchmarkScheduleDepth64 is BenchmarkSchedule with 64 events always
// pending, exercising real sift-up/sift-down paths instead of the trivial
// single-element heap.
func BenchmarkScheduleDepth64(b *testing.B) { benchScheduleDepth(b, 64, time.Millisecond) }

// BenchmarkScheduleDepth1k keeps 1024 events pending, just past the
// deepest pending set any experiment reaches (778, fig12; DESIGN §4e).
func BenchmarkScheduleDepth1k(b *testing.B) { benchScheduleDepth(b, 1024, 2*time.Millisecond) }

// BenchmarkScheduleDepth64k keeps 64k events pending, far deeper than
// any experiment builds (the data-center and PVFS sweeps peak at 756
// and 778): a stress case for the heap's O(log n) sifts.
func BenchmarkScheduleDepth64k(b *testing.B) { benchScheduleDepth(b, 64*1024, 70*time.Millisecond) }

// BenchmarkRunHotLoop measures the event loop proper: a self-rescheduling
// event chain dispatched by RunUntil, the pattern every NIC, link and CPU
// model follows. One closure serves the whole run, so allocs/op must be 0.
func BenchmarkRunHotLoop(b *testing.B) {
	s := New()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			s.Schedule(time.Microsecond, fn)
		}
	}
	s.Schedule(time.Microsecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if n != b.N {
		b.Fatalf("dispatched %d events, want %d", n, b.N)
	}
}

// BenchmarkProcResume measures one Proc wake: the event dispatch plus the
// channel handoff to the parked goroutine and back (two host context
// switches). This is the per-blocking-point cost the continuation API
// removes; compare with BenchmarkTaskResume.
func BenchmarkProcResume(b *testing.B) {
	s := New()
	n := 0
	s.Spawn("p", func(p *Proc) {
		for n = 0; n < b.N; n++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if n != b.N {
		b.Fatalf("resumed %d times, want %d", n, b.N)
	}
}

// BenchmarkTaskResume measures one Task wake: the same event shape as a
// Proc wake, but the continuation runs directly on the event-loop
// goroutine — no channel handoff, no goroutine switch.
func BenchmarkTaskResume(b *testing.B) {
	s := New()
	t := s.NewTask("t")
	n := 0
	t.OnWake(func() {
		n++
		if n < b.N {
			t.WakeAfter(time.Microsecond)
		}
	})
	t.WakeAfter(time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if n != b.N {
		b.Fatalf("resumed %d times, want %d", n, b.N)
	}
}

// BenchmarkScheduleArg is BenchmarkSchedule through the pre-bound
// (func(any), arg) form the packet paths use. The argument is a live
// pointer, so boxing it into the event must not allocate either.
func BenchmarkScheduleArg(b *testing.B) {
	s := New()
	type payload struct{ n int }
	p := &payload{}
	fn := func(a any) { a.(*payload).n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleArg(time.Nanosecond, fn, p)
		s.Step()
	}
	if p.n != b.N {
		b.Fatalf("dispatched %d arg events, want %d", p.n, b.N)
	}
}
