package sim

import (
	"math/rand"
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

func TestStop(t *testing.T) {
	s := New()
	var count int
	for i := 1; i <= 10; i++ {
		s.Schedule(Duration(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("events after stop = %d, want 3", count)
	}
	s.Run()
	if count != 10 {
		t.Fatalf("events after resume = %d, want 10", count)
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
		marks = append(marks, p.Now())
		p.Sleep(100 * time.Nanosecond)
		marks = append(marks, p.Now())
		p.Sleep(50 * time.Nanosecond)
		marks = append(marks, p.Now())
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

func TestChanSendRecv(t *testing.T) {
	s := New()
	ch := NewChan[int](s)
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	s.Spawn("send", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			ch.Send(i)
			p.Sleep(10)
		}
		ch.Close()
	})
	s.Run()
	if len(got) != 5 {
		t.Fatalf("received %v, want 5 values", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got = %v, want ordered 1..5", got)
		}
	}
}

func TestChanBlocksUntilSend(t *testing.T) {
	s := New()
	ch := NewChan[string](s)
	var recvAt Time = -1
	s.Spawn("recv", func(p *Proc) {
		ch.Recv(p)
		recvAt = p.Now()
	})
	s.Spawn("send", func(p *Proc) {
		p.Sleep(500)
		ch.Send("x")
	})
	s.Run()
	if recvAt != 500 {
		t.Fatalf("recvAt = %v, want 500", recvAt)
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var spans [][2]Time
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Sleep(100)
			spans = append(spans, [2]Time{start, p.Now()})
			r.Release()
		})
	}
	s.Run()
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Fatalf("overlapping critical sections: %v", spans)
		}
	}
}

func TestResourceCapacity(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var maxConc, conc int
	for i := 0; i < 6; i++ {
		s.Spawn("w", func(p *Proc) {
			r.Acquire(p)
			conc++
			if conc > maxConc {
				maxConc = conc
			}
			p.Sleep(100)
			conc--
			r.Release()
		})
	}
	s.Run()
	if maxConc != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxConc)
	}
}

func TestResourceAcquireN(t *testing.T) {
	s := New()
	r := NewResource(s, 4)
	var order []int
	s.Spawn("big", func(p *Proc) {
		r.AcquireN(p, 3)
		order = append(order, 3)
		p.Sleep(100)
		r.ReleaseN(3)
	})
	s.Spawn("big2", func(p *Proc) {
		p.Sleep(1)
		r.AcquireN(p, 4) // must wait for everything
		order = append(order, 4)
		r.ReleaseN(4)
	})
	s.Spawn("small", func(p *Proc) {
		p.Sleep(2)
		r.Acquire(p) // fits now, but FIFO puts it behind big2
		order = append(order, 1)
		r.Release()
	})
	s.Run()
	if len(order) != 3 || order[0] != 3 || order[1] != 4 || order[2] != 1 {
		t.Fatalf("order = %v, want [3 4 1] (FIFO)", order)
	}
}

func TestWaitGroup(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	var doneAt Time = -1
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		d := Duration(i * 100)
		s.Spawn("w", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	s.Spawn("main", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	s.Run()
	if doneAt != 300 {
		t.Fatalf("doneAt = %v, want 300", doneAt)
	}
}

func TestCompletion(t *testing.T) {
	s := New()
	c := s.NewCompletion()
	var gotAt Time = -1
	s.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		gotAt = p.Now()
	})
	s.Schedule(250, func() { c.Complete() })
	s.Run()
	if gotAt != 250 {
		t.Fatalf("gotAt = %v, want 250", gotAt)
	}
	if !c.Done() {
		t.Fatal("completion not done")
	}
}

func TestCompletionBeforeWait(t *testing.T) {
	s := New()
	c := s.NewCompletion()
	c.Complete()
	var passed bool
	s.Spawn("waiter", func(p *Proc) {
		c.Wait(p) // must not block
		passed = true
	})
	s.Run()
	if !passed {
		t.Fatal("waiter blocked on completed completion")
	}
}

// Property: a single-capacity resource under random hold times never
// admits two holders at once and serves all requesters.
func TestResourceMutualExclusionProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		nn := int(n%20) + 1
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		r := NewResource(s, 1)
		inside := 0
		violated := false
		served := 0
		for i := 0; i < nn; i++ {
			hold := Duration(rnd.Intn(50) + 1)
			start := Duration(rnd.Intn(50))
			s.SpawnAfter(start, "w", func(p *Proc) {
				r.Acquire(p)
				inside++
				if inside > 1 {
					violated = true
				}
				p.Sleep(hold)
				inside--
				r.Release()
				served++
			})
		}
		s.Run()
		return !violated && served == nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		ch := NewChan[int](s)
		var marks []Time
		for i := 0; i < 4; i++ {
			s.Spawn("p", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Duration(10 + j))
					ch.Send(j)
				}
			})
		}
		s.Spawn("c", func(p *Proc) {
			for i := 0; i < 12; i++ {
				ch.Recv(p)
				marks = append(marks, p.Now())
			}
		})
		s.Run()
		return marks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths %d vs %d", len(a), len(b))
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
