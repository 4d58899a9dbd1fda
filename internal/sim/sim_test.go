package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30*time.Nanosecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Nanosecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Nanosecond, func() { got = append(got, 2) })
	end := s.Run()
	if end != Time(30) {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(5*time.Nanosecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[i])
		}
	}
}

func TestNestedSchedule(t *testing.T) {
	s := New()
	var fired []Time
	s.Schedule(10, func() {
		fired = append(fired, s.Now())
		s.Schedule(15, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 25 {
		t.Fatalf("fired = %v, want [10 25]", fired)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var count int
	for i := 1; i <= 10; i++ {
		s.Schedule(Duration(i)*time.Microsecond, func() { count++ })
	}
	s.RunUntil(Time(5 * time.Microsecond.Nanoseconds()))
	if count != 5 {
		t.Fatalf("events before deadline = %d, want 5", count)
	}
	if s.Now() != Time(5*time.Microsecond.Nanoseconds()) {
		t.Fatalf("now = %v, want 5us", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("total events = %d, want 10", count)
	}
}

// TestRunUntilPastDeadlinePanics runs past one event, then asks for a
// deadline before the clock. That must panic like a negative delay, and
// leave the clock and the pending event where they were: an event
// scheduled into the rewound gap would fire after a later one had
// already run.
func TestRunUntilPastDeadlinePanics(t *testing.T) {
	s := New()
	var fired []Time
	mark := func() { fired = append(fired, s.Now()) }
	s.At(100, mark)
	s.At(200, mark)
	if end := s.RunUntil(150); end != 150 {
		t.Fatalf("RunUntil(150) = %v, want 150", end)
	}
	r := mustPanic(t, "RunUntil(50) at 150", func() { s.RunUntil(50) })
	if msg, _ := r.(string); msg != "sim: run until 50ns before now 150ns" {
		t.Fatalf("panic = %v", r)
	}
	if s.Now() != 150 || s.Pending() != 1 {
		t.Fatalf("after the refused RunUntil: now %v, %d pending; want 150ns, 1", s.Now(), s.Pending())
	}
	mustPanic(t, "At(60) at 150", func() { s.At(60, mark) })
	s.Run()
	if len(fired) != 2 || fired[0] != 100 || fired[1] != 200 {
		t.Fatalf("fired = %v, want [100ns 200ns]", fired)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock matches each event's scheduled time.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fired []Time
		for _, d := range delays {
			d := Duration(d)
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		sorted := make([]Time, len(fired))
		copy(sorted, fired)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	s := New()
	var marks []Time
	s.Spawn("p", func(p *Proc) {
		marks = append(marks, s.Now())
		p.Sleep(100 * time.Nanosecond)
		marks = append(marks, s.Now())
		p.Sleep(50 * time.Nanosecond)
		marks = append(marks, s.Now())
	})
	s.Run()
	want := []Time{0, 100, 150}
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New()
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				p.Sleep(10)
			}
		})
	}
	s.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCompletion(t *testing.T) {
	s := New()
	c := s.NewCompletion()
	var gotAt Time = -1
	task := s.NewTask("waiter")
	task.Start(func() {
		c.WaitThen(task, func() { gotAt = s.Now() })
	})
	s.Schedule(250, func() { c.Complete() })
	s.Run()
	if gotAt != 250 {
		t.Fatalf("gotAt = %v, want 250", gotAt)
	}
	if !c.done {
		t.Fatal("completion not done")
	}
}

func TestCompletionBeforeWait(t *testing.T) {
	s := New()
	c := s.NewCompletion()
	c.Complete()
	var passed bool
	task := s.NewTask("waiter")
	task.Start(func() {
		c.WaitThen(task, func() { passed = true }) // must not suspend
		if !passed {
			t.Error("waiter suspended on a fired completion")
		}
	})
	s.Run()
	if !passed {
		t.Fatal("waiter never continued")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		var marks []Time
		consumer := s.NewTask("c")
		consumer.OnWake(func() { marks = append(marks, s.Now()) })
		for i := 0; i < 4; i++ {
			producer := s.NewTask("p")
			j := 0
			producer.Start(func() {
				if j > 0 {
					consumer.Wake()
				}
				if j < 3 {
					producer.WakeAfter(Duration(10 + j))
					j++
				}
			})
		}
		s.Run()
		return marks
	}
	a, b := run(), run()
	if len(a) != 12 || len(a) != len(b) {
		t.Fatalf("lengths %d and %d, want 12", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500).String(); got != "1.5µs" {
		t.Fatalf("Time.String = %q", got)
	}
	if got := Time(2e9).Seconds(); got != 2.0 {
		t.Fatalf("Seconds = %v", got)
	}
}
