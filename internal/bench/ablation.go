package bench

import (
	"fmt"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
	"ioatsim/internal/stats"
)

// AblRSS quantifies the feature the paper could not measure (§2.2.3,
// disabled in their kernel): multiple receive queues. With a small MTU
// (heavy per-frame work — the paper's "processing small packets can
// fully occupy the CPU"), the single interrupt CPU saturates and caps
// throughput; RSS spreads flows across cores and restores line rate.
func AblRSS(cfg Config) *Result {
	series := stats.NewSeries("Ablation: Multiple Receive Queues (MTU 576)", "Ports",
		"I/OAT Mbps", "I/OAT-FULL Mbps", "I/OAT core0%", "I/OAT-FULL core0%")
	type rssRow struct{ LinuxMbps, FullMbps, LinuxCore0, FullCore0 float64 }
	params := func() *cost.Params {
		p := cfg.params()
		p.MTU = 576
		return p
	}
	rows := points(cfg, 6, func(i int) string {
		return cfg.key("ablrss", i+1, params())
	}, func(i int) rssRow {
		ports := i + 1
		run := func(feat ioat.Features) (float64, float64) {
			p := params()
			core0 := 0.0
			res := runMicroWith(p, feat, cfg, func(a, b *host.Node) []stream {
				var ss []stream
				for port := 0; port < ports; port++ {
					ss = append(ss, stream{from: a, to: b, portFrom: port, portTo: port, msg: 64 * cost.KB})
				}
				return ss
			}, func(a, b *host.Node) { core0 = b.CPU.CoreUtilization(0) })
			return res.Mbps, core0
		}
		var r rssRow
		r.LinuxMbps, r.LinuxCore0 = run(ioat.Linux())
		r.FullMbps, r.FullCore0 = run(ioat.Full())
		return r
	})
	for i, r := range rows {
		series.Add(float64(i+1), "",
			r.LinuxMbps, r.FullMbps, pct(r.LinuxCore0), pct(r.FullCore0))
	}
	return &Result{ID: "ablrss", Title: "Ablation: multiple receive queues", Series: series,
		Notes: []string{"single-queue receive processing saturates core 0 and caps throughput; RSS restores scaling"}}
}

// AblPin sweeps the page-pinning cost for the user-level async memcpy
// (paper §7: "the usefulness of the copy engine becomes questionable if
// the pinning cost exceeds the copy cost"). Buffers are not reused, so
// every copy re-pins.
func AblPin(cfg Config) *Result {
	series := stats.NewSeries("Ablation: pinning cost vs DMA benefit (64K copy)", "PinMult",
		"CPU copy us", "DMA CPU cost us", "DMA wins")
	mults := []int{0, 1, 2, 4, 8, 16, 32}
	type pinRow struct{ CPUCopy, DMACPU time.Duration }
	params := func(i int) *cost.Params {
		p := cfg.params()
		p.PinPerPage = time.Duration(mults[i]) * 150 * time.Nanosecond
		return p
	}
	rows := points(cfg, len(mults), func(i int) string {
		return cfg.key("ablpin", mults[i], params(i))
	}, func(i int) pinRow {
		p := params(i)
		cl, node, _ := host.Testbed1(p, ioat.Linux(), cfg.Seed, cfg.hostOpts()...)
		defer cl.Close()
		var r pinRow
		t := cl.S.NewTask("ablpin")
		t.Start(func() {
			size := 64 * cost.KB
			src := node.Buf(size)
			dst := node.Buf(size)
			r.CPUCopy = node.Copier.CopySync(t, src.Addr, dst.Addr, size, func() {
				// Fresh buffers every time: pins never amortize.
				s2 := node.Buf(size)
				d2 := node.Buf(size)
				busy0 := node.CPU.BusyTime()
				node.Copier.Start(t, s2.Addr, d2.Addr, size, func(done *sim.Completion) {
					r.DMACPU = node.CPU.BusyTime() - busy0
					done.WaitThen(t, func() {})
				})
			})
		})
		cl.S.Run()
		cl.MustVerify()
		return r
	})
	for i, r := range rows {
		wins := 0.0
		if r.DMACPU < r.CPUCopy {
			wins = 1
		}
		series.Add(float64(mults[i]), fmt.Sprintf("%dx", mults[i]),
			us(r.CPUCopy), us(r.DMACPU), wins)
	}
	return &Result{ID: "ablpin", Title: "Ablation: page-pinning cost vs DMA benefit", Series: series,
		Notes: []string{"paper §7: once pinning exceeds the copy cost, the engine stops paying off"}}
}

// AblCoal sweeps the interrupt-coalescing frame budget under light and
// heavy load, reproducing the paper's §2.1 claim that coalescing only
// helps when the network is heavily loaded.
func AblCoal(cfg Config) *Result {
	series := stats.NewSeries("Ablation: interrupt coalescing budget", "Frames/intr",
		"light-load CPU%", "heavy-load CPU%", "light Mbps", "heavy Mbps")
	budgets := []int{1, 2, 4, 8, 16, 32}
	type coalRow struct{ Light, Heavy microResult }
	params := func(i int) *cost.Params {
		p := cfg.params()
		p.CoalesceFrames = budgets[i]
		return p
	}
	rows := points(cfg, len(budgets), func(i int) string {
		return cfg.key("ablcoal", budgets[i], params(i))
	}, func(i int) coalRow {
		run := func(ports int) microResult {
			return runMicro(params(i), ioat.None(), cfg, portStreams(ports, 64*cost.KB, false))
		}
		return coalRow{Light: run(1), Heavy: run(6)}
	})
	for i, r := range rows {
		series.Add(float64(budgets[i]), "",
			pct(r.Light.CPURecv), pct(r.Heavy.CPURecv), r.Light.Mbps, r.Heavy.Mbps)
	}
	return &Result{ID: "ablcoal", Title: "Ablation: interrupt coalescing", Series: series,
		Notes: []string{"coalescing saves little at light load and a lot at heavy load (paper §2.1)"}}
}
