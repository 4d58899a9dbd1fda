package dma

import (
	"math"
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
)

func newEngine() (*sim.Simulator, *mem.Model, *Engine) {
	s := sim.New()
	p := cost.Default()
	m := mem.NewModel(p)
	return s, m, New(s, p, m)
}

func TestTransferTiming(t *testing.T) {
	s, m, e := newEngine()
	src := m.Space.Alloc(64*cost.KB, 0)
	dst := m.Space.Alloc(64*cost.KB, 0)
	done := e.Submit(src.Addr, dst.Addr, 64*cost.KB)
	var doneAt sim.Time = -1
	done.WaitThen(s.NewTask("w"), func() { doneAt = s.Now() })
	s.Run()
	want := e.TransferTime(64 * cost.KB)
	if doneAt != sim.Time(want) {
		t.Fatalf("doneAt = %v, want %v", doneAt, want)
	}
	// 64K at 2.6 GB/s is ~25.2 us.
	if want < 23*time.Microsecond || want > 28*time.Microsecond {
		t.Fatalf("64K transfer = %v, want ~25us", want)
	}
}

func TestEngineSerializes(t *testing.T) {
	s, m, e := newEngine()
	buf := m.Space.Alloc(1*cost.MB, 0)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		done := e.Submit(buf.Addr, buf.Addr+512*1024, 64*cost.KB)
		done.WaitThen(s.NewTask("w"), func() { ends = append(ends, s.Now()) })
	}
	s.Run()
	one := sim.Time(e.TransferTime(64 * cost.KB))
	if len(ends) != 3 || ends[1] != 2*one || ends[2] != 3*one {
		t.Fatalf("ends = %v, want multiples of %v", ends, one)
	}
}

func TestSetupCostScalesWithPages(t *testing.T) {
	_, _, e := newEngine()
	small := e.SetupCost(1 * cost.KB)
	big := e.SetupCost(64 * cost.KB)
	if big <= small {
		t.Fatalf("setup cost not page-scaled: %v vs %v", small, big)
	}
	p := cost.Default()
	want := p.DMAStartup + 16*p.DMAPerPage
	if big != want {
		t.Fatalf("SetupCost(64K) = %v, want %v", big, want)
	}
}

func TestSetupMuchCheaperThanCPUCopy(t *testing.T) {
	// The paper's Fig. 6 point: even when data is cached, the DMA
	// startup overhead is below the CPU copy time for moderate sizes.
	p := cost.Default()
	_, _, e := newEngine()
	cpuCopyCached := time.Duration(2*64*cost.KB/p.CacheLine) * p.StreamHit
	if e.SetupCost(64*cost.KB) >= cpuCopyCached {
		t.Fatalf("setup %v not below cached CPU copy %v",
			e.SetupCost(64*cost.KB), cpuCopyCached)
	}
}

func TestOverlapIncreasesWithSize(t *testing.T) {
	// Overlap = engine time / (setup + engine time); Fig. 6 shows it
	// rising to ~93% at 64K.
	_, _, e := newEngine()
	overlap := func(n int) float64 {
		xfer := e.TransferTime(n).Seconds()
		total := (e.SetupCost(n) + e.TransferTime(n)).Seconds()
		return xfer / total
	}
	if overlap(64*cost.KB) <= overlap(4*cost.KB) {
		t.Fatal("overlap does not increase with size")
	}
	got := overlap(64 * cost.KB)
	if math.Abs(got-0.93) > 0.04 {
		t.Fatalf("overlap(64K) = %.3f, want ~0.93", got)
	}
}

func TestCompletionInvalidatesDst(t *testing.T) {
	s, m, e := newEngine()
	src := m.Space.Alloc(8*cost.KB, 0)
	dst := m.Space.Alloc(8*cost.KB, 0)
	m.TouchCost(dst.Addr, dst.Size) // dst warm in cache
	if m.Cache.Resident(dst.Addr, dst.Size) == 0 {
		t.Fatal("warm-up failed")
	}
	e.Submit(src.Addr, dst.Addr, 8*cost.KB)
	s.Run()
	if got := m.Cache.Resident(dst.Addr, dst.Size); got != 0 {
		t.Fatalf("dst still cached after DMA write: %d lines", got)
	}
}

func TestPinCost(t *testing.T) {
	_, _, e := newEngine()
	p := cost.Default()
	if got := e.PinCost(1 * cost.MB); got != 256*p.PinPerPage {
		t.Fatalf("PinCost(1M) = %v, want %v", got, 256*p.PinPerPage)
	}
}

func TestQueueDelay(t *testing.T) {
	s, m, e := newEngine()
	buf := m.Space.Alloc(256*cost.KB, 0)
	e.Submit(buf.Addr, buf.Addr+128*1024, 64*cost.KB)
	if e.QueueDelay() != e.TransferTime(64*cost.KB) {
		t.Fatalf("queue delay = %v", e.QueueDelay())
	}
	s.Run()
	if e.QueueDelay() != 0 {
		t.Fatalf("queue delay after drain = %v", e.QueueDelay())
	}
}

func TestUtilization(t *testing.T) {
	s, m, e := newEngine()
	buf := m.Space.Alloc(256*cost.KB, 0)
	e.Submit(buf.Addr, buf.Addr+128*1024, 64*cost.KB)
	s.Run()
	if e.BytesMoved != 64*cost.KB {
		t.Fatalf("moved %d bytes, want %d", e.BytesMoved, 64*cost.KB)
	}
}
