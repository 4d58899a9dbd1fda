package bench

import (
	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/stats"
)

// fig7Row is one message size measured under the three configurations.
type fig7Row struct {
	Plain, DMAOnly, Split microResult
}

// fig7Run measures one message size under the three §4.5 configurations:
// non-I/OAT, I/OAT-DMA (copy engine only) and I/OAT-SPLIT (copy engine +
// split headers). Four streams over four ports (two dual-port adapters),
// as in the paper.
func fig7Run(cfg Config, p *cost.Params, msg int) fig7Row {
	build := func(a, b *host.Node) []stream {
		var ss []stream
		for i := 0; i < 4; i++ {
			ss = append(ss, stream{from: a, to: b, portFrom: i, portTo: i, msg: msg})
		}
		return ss
	}
	return fig7Row{
		Plain:   runMicro(p.Clone(), ioat.None(), cfg, build),
		DMAOnly: runMicro(p.Clone(), ioat.DMAOnly(), cfg, build),
		Split:   runMicro(p.Clone(), ioat.Linux(), cfg, build),
	}
}

// Fig7a reproduces Figure 7a: for 16K-128K messages, the DMA engine cuts
// receiver CPU (~16% relative in the paper) while the split-header
// feature adds nothing at these sizes; throughput is identical.
func Fig7a(cfg Config) *Result {
	series := stats.NewSeries("Fig 7a: I/OAT split-up (CPU)", "Size",
		"non-I/OAT Mbps", "I/OAT-DMA Mbps", "I/OAT-SPLIT Mbps",
		"DMA CPU benefit%", "Split CPU benefit%")
	msgs := []int{16 * cost.KB, 32 * cost.KB, 64 * cost.KB, 128 * cost.KB}
	rows := points(cfg, "fig7a", len(msgs), func(i int) fig7Row {
		return fig7Run(cfg, cfg.params(), msgs[i])
	})
	for i, r := range rows {
		msg := msgs[i]
		series.Add(float64(msg), sizeLabel(msg),
			r.Plain.Mbps, r.DMAOnly.Mbps, r.Split.Mbps,
			pct(stats.RelativeBenefit(r.Plain.CPURecv, r.DMAOnly.CPURecv)),
			pct(stats.RelativeBenefit(r.DMAOnly.CPURecv, r.Split.CPURecv)))
	}
	return &Result{ID: "fig7a", Title: "I/OAT split-up: CPU benefit", Series: series,
		Notes: []string{"paper: DMA engine ~16% relative CPU benefit, split-header ~0 at these sizes"}}
}

// Fig7b reproduces Figure 7b: for 1M-8M messages — whose in-flight
// receive working set exceeds the 2 MB L2 — the split-header feature
// recovers throughput that full-packet cache placement loses to
// pollution (paper: up to ~26% at 1M).
func Fig7b(cfg Config) *Result {
	series := stats.NewSeries("Fig 7b: I/OAT split-up (throughput)", "Size",
		"non-I/OAT Mbps", "I/OAT-DMA Mbps", "I/OAT-SPLIT Mbps",
		"DMA tput benefit%", "Split tput benefit%")
	msgs := []int{cost.MB, 2 * cost.MB, 4 * cost.MB, 8 * cost.MB}
	rows := points(cfg, "fig7b", len(msgs), func(i int) fig7Row {
		p := cfg.params()
		p.SockBuf = cost.MB // large-message runs need deep socket buffers
		return fig7Run(cfg, p, msgs[i])
	})
	for i, r := range rows {
		msg := msgs[i]
		series.Add(float64(msg), sizeLabel(msg),
			r.Plain.Mbps, r.DMAOnly.Mbps, r.Split.Mbps,
			pct(gain(r.Plain.Mbps, r.DMAOnly.Mbps)),
			pct(gain(r.DMAOnly.Mbps, r.Split.Mbps)))
	}
	return &Result{ID: "fig7b", Title: "I/OAT split-up: throughput", Series: series,
		Notes: []string{"paper: split-header up to ~26% throughput benefit at 1M, shrinking with size"}}
}

// gain returns the fractional improvement of x over base.
func gain(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (x - base) / base
}
