package ioat

import (
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/cpu"
	"ioatsim/internal/dma"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
)

func TestLabels(t *testing.T) {
	cases := map[string]Features{
		"non-I/OAT":  None(),
		"I/OAT":      Linux(),
		"I/OAT-DMA":  DMAOnly(),
		"I/OAT-FULL": Full(),
	}
	for want, f := range cases {
		if got := f.Label(); got != want {
			t.Errorf("Label(%+v) = %q, want %q", f, got, want)
		}
	}
}

func TestLinuxMatchesPaper(t *testing.T) {
	f := Linux()
	if !f.DMACopy || !f.SplitHeader {
		t.Fatal("Linux feature set must enable DMA copy and split headers")
	}
	if f.MultiQueue {
		t.Fatal("multiple receive queues were disabled in the paper's kernel")
	}
}

func newNode() (*sim.Simulator, *Copier) {
	s := sim.New()
	p := cost.Default()
	m := mem.NewModel(p)
	c := cpu.New(s, p)
	e := dma.New(s, p, m)
	return s, NewCopier(c, e, m)
}

func TestAsyncCopyOverlap(t *testing.T) {
	s, c := newNode()
	src := c.Mem.Space.Alloc(64*cost.KB, 0)
	dst := c.Mem.Space.Alloc(64*cost.KB, 0)
	var setupDone, copyDone, computeDone sim.Time
	app := s.NewTask("app")
	app.Start(func() {
		c.Start(app, src.Addr, dst.Addr, 64*cost.KB, func(done *sim.Completion) {
			setupDone = s.Now()
			// Overlap: compute while the engine copies.
			c.CPU.ExecThen(app, 20*time.Microsecond, func() {
				computeDone = s.Now()
				done.WaitThen(app, func() { copyDone = s.Now() })
			})
		})
	})
	s.Run()
	if setupDone >= sim.Time(10*time.Microsecond) {
		t.Fatalf("setup blocked the CPU too long: %v", setupDone)
	}
	if computeDone >= copyDone {
		t.Fatalf("no overlap: compute finished at %v, copy at %v", computeDone, copyDone)
	}
	// Total elapsed should be ~ transfer time, not transfer + compute.
	xfer := c.Engine.TransferTime(64 * cost.KB)
	if copyDone > sim.Time(setupDone).Add(xfer+time.Microsecond) {
		t.Fatalf("copy took %v, want ~%v after setup", copyDone, xfer)
	}
}

func TestSyncCopyBlocksCaller(t *testing.T) {
	s, c := newNode()
	src := c.Mem.Space.Alloc(64*cost.KB, 0)
	dst := c.Mem.Space.Alloc(64*cost.KB, 0)
	var elapsed sim.Time
	app := s.NewTask("app")
	app.Start(func() {
		c.CopySync(app, src.Addr, dst.Addr, 64*cost.KB, func() { elapsed = s.Now() })
	})
	s.Run()
	// Cold 64K copy is ~43 us of CPU time, all blocking.
	if elapsed < sim.Time(30*time.Microsecond) {
		t.Fatalf("sync copy returned too fast: %v", elapsed)
	}
}

func TestAsyncBeatsSyncForLargeColdCopies(t *testing.T) {
	// The paper's Fig. 6 crossover, end to end: above 8K an async copy
	// (setup cost only, engine overlapped) beats a cold CPU copy.
	s, c := newNode()
	src := c.Mem.Space.Alloc(64*cost.KB, 0)
	dst := c.Mem.Space.Alloc(64*cost.KB, 0)
	var cpuBusyAsync time.Duration
	app := s.NewTask("app")
	app.Start(func() {
		start := c.CPU.BusyTime()
		c.Start(app, src.Addr, dst.Addr, 64*cost.KB, func(done *sim.Completion) {
			cpuBusyAsync = c.CPU.BusyTime() - start
			done.WaitThen(app, func() {})
		})
	})
	s.Run()

	s2, c2 := newNode()
	var cpuBusySync time.Duration
	app2 := s2.NewTask("app")
	app2.Start(func() {
		start := c2.CPU.BusyTime()
		c2.CopySync(app2, src.Addr, dst.Addr, 64*cost.KB, func() {
			cpuBusySync = c2.CPU.BusyTime() - start
		})
	})
	s2.Run()

	if cpuBusyAsync >= cpuBusySync {
		t.Fatalf("async CPU cost %v not below sync %v", cpuBusyAsync, cpuBusySync)
	}
}

func TestPinRegistrationCache(t *testing.T) {
	s, c := newNode()
	src := c.Mem.Space.Alloc(64*cost.KB, 0)
	dst := c.Mem.Space.Alloc(64*cost.KB, 0)
	var first, second time.Duration
	app := s.NewTask("app")
	// measure runs one copy to completion and records its CPU cost.
	measure := func(into *time.Duration, next func()) {
		b0 := c.CPU.BusyTime()
		c.Start(app, src.Addr, dst.Addr, 64*cost.KB, func(done *sim.Completion) {
			done.WaitThen(app, func() {
				*into = c.CPU.BusyTime() - b0
				next()
			})
		})
	}
	app.Start(func() {
		measure(&first, func() {
			measure(&second, func() {})
		})
	})
	s.Run()
	if second >= first {
		t.Fatalf("second copy (%v) did not skip pinning (%v)", second, first)
	}
}
