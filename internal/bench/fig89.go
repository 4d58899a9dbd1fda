package bench

import (
	"fmt"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/datacenter"
	"ioatsim/internal/ioat"
	"ioatsim/internal/stats"
)

// dcPair is the plain-vs-accelerated data-center measurement.
type dcPair struct{ Plain, Accel datacenter.Metrics }

// dcOptions builds the shared data-center options for one run. The
// warm-up has a fixed floor: dozens of client connections need tens of
// simulated milliseconds to reach steady state regardless of how short
// the measurement window is scaled.
func dcOptions(cfg Config, feat ioat.Features) datacenter.Options {
	warm := cfg.duration(60 * time.Millisecond)
	if warm < 40*time.Millisecond {
		warm = 40 * time.Millisecond
	}
	return datacenter.Options{
		P:                cfg.params(),
		Feat:             feat,
		Seed:             cfg.Seed,
		ClientNodes:      16,
		ThreadsPerClient: 4,
		Host:             cfg.hostOpts(),
		Warm:             warm,
		Meas:             cfg.duration(240 * time.Millisecond),
	}
}

// Fig8a reproduces Figure 8a: data-center TPS for single-file traces of
// 2K..10K documents, proxy and web tiers with and without I/OAT.
func Fig8a(cfg Config) *Result {
	series := stats.NewSeries("Fig 8a: Single-File Traces", "Trace",
		"non-I/OAT TPS", "I/OAT TPS", "TPS benefit%", "proxyCPU-non%", "proxyCPU-ioat%")
	sizes := []int{2 * cost.KB, 4 * cost.KB, 6 * cost.KB, 8 * cost.KB, 10 * cost.KB}
	rows := points(cfg, "fig8a", len(sizes), func(i int) dcPair {
		run := func(feat ioat.Features) datacenter.Metrics {
			o := dcOptions(cfg, feat)
			o.FileCount = 1
			o.FileSize = sizes[i]
			return datacenter.RunTwoTier(o)
		}
		return dcPair{run(ioat.None()), run(ioat.Linux())}
	})
	for i, r := range rows {
		series.Add(float64(i+1), fmt.Sprintf("Trace %d (%s)", i+1, sizeLabel(sizes[i])),
			r.Plain.TPS, r.Accel.TPS, pct(gain(r.Plain.TPS, r.Accel.TPS)),
			pct(r.Plain.ProxyCPU), pct(r.Accel.ProxyCPU))
	}
	return &Result{ID: "fig8a", Title: "Data-center TPS: single-file traces", Series: series,
		Notes: []string{"paper: I/OAT wins all traces, peak ~14% at 4K (9754 vs 8569 TPS)"}}
}

// Fig8b reproduces Figure 8b: data-center TPS under Zipf traces with
// alpha from 0.95 (high locality) down to 0.5.
func Fig8b(cfg Config) *Result {
	series := stats.NewSeries("Fig 8b: Zipf Traces", "Alpha",
		"non-I/OAT TPS", "I/OAT TPS", "TPS benefit%")
	alphas := []float64{0.95, 0.9, 0.75, 0.5}
	rows := points(cfg, "fig8b", len(alphas), func(i int) dcPair {
		run := func(feat ioat.Features) datacenter.Metrics {
			o := dcOptions(cfg, feat)
			o.FileCount = 1000
			o.SpreadMin = 2 * cost.KB
			o.SpreadMax = 10 * cost.KB
			o.Alpha = alphas[i]
			return datacenter.RunTwoTier(o)
		}
		return dcPair{run(ioat.None()), run(ioat.Linux())}
	})
	for i, r := range rows {
		series.Add(alphas[i], fmt.Sprintf("a=%.2f", alphas[i]),
			r.Plain.TPS, r.Accel.TPS, pct(gain(r.Plain.TPS, r.Accel.TPS)))
	}
	return &Result{ID: "fig8b", Title: "Data-center TPS: Zipf traces", Series: series,
		Notes: []string{"paper: I/OAT up to ~11% TPS benefit across alphas"}}
}

// Fig9 reproduces Figure 9: emulated proxy clients (1..256 threads on one
// Testbed-1 node) firing 16K requests at the web tier; TPS and the
// client node's CPU.
func Fig9(cfg Config) *Result {
	series := stats.NewSeries("Fig 9: Emulated Clients (16K file)", "Threads",
		"non-I/OAT TPS", "I/OAT TPS", "non-I/OAT CPU%", "I/OAT CPU%", "TPS benefit%")
	threadCounts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	rows := points(cfg, "fig9", len(threadCounts), func(i int) dcPair {
		run := func(feat ioat.Features) datacenter.Metrics {
			o := dcOptions(cfg, feat)
			o.FileCount = 1
			o.FileSize = 16 * cost.KB
			return datacenter.RunEmulated(o, threadCounts[i])
		}
		return dcPair{run(ioat.None()), run(ioat.Linux())}
	})
	for i, r := range rows {
		series.Add(float64(threadCounts[i]), "",
			r.Plain.TPS, r.Accel.TPS, pct(r.Plain.ClientCPU), pct(r.Accel.ClientCPU),
			pct(gain(r.Plain.TPS, r.Accel.TPS)))
	}
	return &Result{ID: "fig9", Title: "Data-center TPS vs emulated clients", Series: series,
		Notes: []string{
			"paper: non-I/OAT CPU saturates at 64 threads, I/OAT at 256; ~16% TPS at 256",
			"paper: I/OAT sustains up to 4x the concurrent threads",
		}}
}
