package bench

import (
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
	"ioatsim/internal/stats"
)

// fig6Row is one measured copy size.
type fig6Row struct {
	Size                               int
	Cached, Uncached, DMATotal, DMACPU time.Duration
}

// fig6Point measures one copy size on a fresh Testbed-1 node, so every
// size is an independent simulation (and the sizes can run concurrently).
// The platform features only matter in that the node must have a copy
// engine.
func fig6Point(cfg Config, size int) fig6Row {
	cl, node, _ := host.Testbed1(cfg.params(), ioat.Linux(), cfg.Seed, cfg.hostOpts()...)
	defer cl.Close()
	row := fig6Row{Size: size}
	cl.S.Spawn("fig6", func(p *sim.Proc) {
		// copy-cache: warm both buffers first.
		src := node.Buf(size)
		dst := node.Buf(size)
		node.CPU.Exec(p, node.Mem.TouchCost(src.Addr, size))
		node.CPU.Exec(p, node.Mem.TouchCost(dst.Addr, size))
		row.Cached = node.Copier.CopySync(p, src.Addr, dst.Addr, size)

		// copy-nocache: fresh, never-touched buffers.
		csrc := node.Buf(size)
		cdst := node.Buf(size)
		row.Uncached = node.Copier.CopySync(p, csrc.Addr, cdst.Addr, size)

		// DMA copy: CPU-visible setup, engine transfer. A warm-up
		// round registers (pins) the buffers, as a steady-state
		// application would; the measured round pays descriptor
		// setup only.
		dsrc := node.Buf(size)
		ddst := node.Buf(size)
		node.Copier.Start(p, dsrc.Addr, ddst.Addr, size).Wait(p)
		start := p.Now()
		busy0 := node.CPU.BusyTime()
		done := node.Copier.Start(p, dsrc.Addr, ddst.Addr, size)
		row.DMACPU = node.CPU.BusyTime() - busy0
		done.Wait(p)
		row.DMATotal = p.Now().Sub(start)
	})
	cl.S.Run()
	cl.MustVerify()
	return row
}

// Fig6 reproduces Figure 6: the cost of moving 1K..64K bytes with a CPU
// copy (source/destination cached vs. uncached) against the DMA engine
// (total time, CPU-visible startup overhead, and the overlappable
// fraction).
func Fig6(cfg Config) *Result {
	series := stats.NewSeries("Fig 6: CPU copy vs DMA copy", "Size",
		"copy-cache us", "copy-nocache us", "DMA-copy us", "DMA-overhead us", "overlap%")

	var sizes []int
	for size := 1 * cost.KB; size <= 64*cost.KB; size *= 2 {
		sizes = append(sizes, size)
	}
	rows := points(cfg, len(sizes), func(i int) string {
		return cfg.key("fig6", sizes[i], cfg.params())
	}, func(i int) fig6Row {
		return fig6Point(cfg, sizes[i])
	})

	for _, r := range rows {
		overlap := 0.0
		if r.DMATotal > 0 {
			overlap = float64(r.DMATotal-r.DMACPU) / float64(r.DMATotal)
		}
		series.Add(float64(r.Size), sizeLabel(r.Size),
			us(r.Cached), us(r.Uncached), us(r.DMATotal), us(r.DMACPU), pct(overlap))
	}
	return &Result{ID: "fig6", Title: "CPU-based copy vs DMA-based copy", Series: series,
		Notes: []string{
			"paper: DMA beats copy-nocache above 8K; overlap reaches ~93% at 64K",
			"paper: DMA startup overhead stays below the CPU copy time",
		}}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sizeLabel(n int) string {
	switch {
	case n >= cost.MB:
		return itoa(n/cost.MB) + "M"
	case n >= cost.KB:
		return itoa(n/cost.KB) + "K"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
