package bench

import (
	"fmt"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/stats"
)

// pair is the plain-vs-accelerated measurement most figures sweep.
type pair struct{ Plain, Accel microResult }

// measurePair runs the same stream layout without and with I/OAT.
// p builds a fresh parameter set per call so concurrent points never
// share a mutable Params.
func measurePair(p func() *cost.Params, cfg Config,
	build func(a, b *host.Node) []stream) pair {
	return pair{
		Plain: runMicro(p(), ioat.None(), cfg, build),
		Accel: runMicro(p(), ioat.Linux(), cfg, build),
	}
}

// portStreams builds one 64 KB ttcp stream per port, optionally mirrored
// in the reverse direction.
func portStreams(ports, msg int, bidir bool) func(a, b *host.Node) []stream {
	return func(a, b *host.Node) []stream {
		var ss []stream
		for i := 0; i < ports; i++ {
			ss = append(ss, stream{from: a, to: b, portFrom: i, portTo: i, msg: msg})
			if bidir {
				ss = append(ss, stream{from: b, to: a, portFrom: i, portTo: i, msg: msg})
			}
		}
		return ss
	}
}

// Fig3a reproduces Figure 3a: unidirectional bandwidth and receiver CPU
// utilization as the number of 1-GbE ports grows from one to six, with
// one ttcp stream per port (64 KB messages).
func Fig3a(cfg Config) *Result {
	series := stats.NewSeries("Fig 3a: Bandwidth", "Ports",
		"non-I/OAT Mbps", "I/OAT Mbps", "non-I/OAT CPU%", "I/OAT CPU%", "rel CPU benefit%")
	rows := points(cfg, "fig3a", 6, func(i int) pair {
		return measurePair(cfg.params, cfg, portStreams(i+1, 64*cost.KB, false))
	})
	for i, r := range rows {
		series.Add(float64(i+1), "",
			r.Plain.Mbps, r.Accel.Mbps, pct(r.Plain.CPURecv), pct(r.Accel.CPURecv),
			pct(stats.RelativeBenefit(r.Plain.CPURecv, r.Accel.CPURecv)))
	}
	return &Result{ID: "fig3a", Title: "Bandwidth vs. ports", Series: series,
		Notes: []string{"paper: ~5635 Mbps at 6 ports; CPU 37% vs 29% (~21% relative)"}}
}

// Fig3b reproduces Figure 3b: bi-directional bandwidth with N streams in
// each direction over N ports, and the CPU utilization of one node.
func Fig3b(cfg Config) *Result {
	series := stats.NewSeries("Fig 3b: Bi-directional Bandwidth", "Ports",
		"non-I/OAT Mbps", "I/OAT Mbps", "non-I/OAT CPU%", "I/OAT CPU%", "rel CPU benefit%")
	rows := points(cfg, "fig3b", 6, func(i int) pair {
		return measurePair(cfg.params, cfg, portStreams(i+1, 64*cost.KB, true))
	})
	for i, r := range rows {
		series.Add(float64(i+1), "",
			r.Plain.Mbps, r.Accel.Mbps, pct(r.Plain.CPURecv), pct(r.Accel.CPURecv),
			pct(stats.RelativeBenefit(r.Plain.CPURecv, r.Accel.CPURecv)))
	}
	return &Result{ID: "fig3b", Title: "Bi-directional bandwidth vs. ports", Series: series,
		Notes: []string{"paper: ~9600 Mbps at 6 ports; CPU ~90% vs ~70% (~22% relative)"}}
}

// Fig4 reproduces Figure 4: multi-stream bandwidth with 1..12 receiver
// threads on one node (16 KB messages, threads round-robin over the six
// ports).
func Fig4(cfg Config) *Result {
	series := stats.NewSeries("Fig 4: Multi-Stream Bandwidth", "Threads",
		"non-I/OAT Mbps", "I/OAT Mbps", "non-I/OAT CPU%", "I/OAT CPU%", "rel CPU benefit%")
	threadCounts := []int{1, 2, 4, 6, 8, 10, 12}
	rows := points(cfg, "fig4", len(threadCounts), func(i int) pair {
		threads := threadCounts[i]
		return measurePair(cfg.params, cfg, func(a, b *host.Node) []stream {
			var ss []stream
			for t := 0; t < threads; t++ {
				ss = append(ss, stream{from: a, to: b, portFrom: t % 6, portTo: t % 6, msg: 16 * cost.KB})
			}
			return ss
		})
	})
	for i, r := range rows {
		series.Add(float64(threadCounts[i]), "",
			r.Plain.Mbps, r.Accel.Mbps, pct(r.Plain.CPURecv), pct(r.Accel.CPURecv),
			pct(stats.RelativeBenefit(r.Plain.CPURecv, r.Accel.CPURecv)))
	}
	return &Result{ID: "fig4", Title: "Multi-stream bandwidth vs. threads", Series: series,
		Notes: []string{"paper: at 12 threads CPU 76% vs 52% (~32% relative); non-I/OAT throughput degrades"}}
}

// socketCases builds the paper's Case 1..5 parameter sets, Figure 5's
// cumulative sender-side optimizations, on top of the given base:
// default, +1 MB socket buffers, +TSO, +jumbo frames (MTU 2048),
// +interrupt coalescing.
func socketCases(base func() *cost.Params) []func() *cost.Params {
	c1 := func() *cost.Params {
		p := base()
		p.SockBuf = 64 * cost.KB
		p.CoalesceFrames = 2
		return p
	}
	c2 := func() *cost.Params { p := c1(); p.SockBuf = cost.MB; return p }
	c3 := func() *cost.Params { p := c2(); p.TSO = true; return p }
	c4 := func() *cost.Params { p := c3(); p.MTU = 2048; return p }
	c5 := func() *cost.Params { p := c4(); p.CoalesceFrames = 16; return p }
	return []func() *cost.Params{c1, c2, c3, c4, c5}
}

// Fig5a reproduces Figure 5a: unidirectional bandwidth under the
// cumulative sender-side optimizations.
func Fig5a(cfg Config) *Result {
	return fig5(cfg, false, "fig5a", "Fig 5a: Optimizations, Bandwidth",
		"paper: Case 5 ~5586 vs ~5514 Mbps; Case 4 relative CPU benefit ~30%")
}

// Fig5b reproduces Figure 5b: bi-directional bandwidth under the same
// optimizations; Case 4 shows the paper's headline 38% relative benefit.
func Fig5b(cfg Config) *Result {
	return fig5(cfg, true, "fig5b", "Fig 5b: Optimizations, Bi-directional Bandwidth",
		"paper: Case 4 relative CPU benefit ~38% (headline number)")
}

func fig5(cfg Config, bidir bool, id, title, note string) *Result {
	series := stats.NewSeries(title, "Case",
		"non-I/OAT Mbps", "I/OAT Mbps", "non-I/OAT CPU%", "I/OAT CPU%", "rel CPU benefit%")
	cases := socketCases(cfg.params)
	rows := points(cfg, id, len(cases), func(i int) pair {
		return measurePair(cases[i], cfg, portStreams(6, 64*cost.KB, bidir))
	})
	for i, r := range rows {
		series.Add(float64(i+1), fmt.Sprintf("Case %d", i+1),
			r.Plain.Mbps, r.Accel.Mbps, pct(r.Plain.CPURecv), pct(r.Accel.CPURecv),
			pct(stats.RelativeBenefit(r.Plain.CPURecv, r.Accel.CPURecv)))
	}
	return &Result{ID: id, Title: title, Series: series, Notes: []string{note}}
}
