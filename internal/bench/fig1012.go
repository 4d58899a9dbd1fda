package bench

import (
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/ioat"
	"ioatsim/internal/pvfs"
	"ioatsim/internal/stats"
)

// pvfsPair is the plain-vs-accelerated PVFS measurement.
type pvfsPair struct{ Plain, Accel pvfs.Metrics }

// pvfsOptions builds the shared PVFS options for one run.
func pvfsOptions(cfg Config, feat ioat.Features) pvfs.Options {
	return pvfs.Options{
		P:    cfg.params(),
		Feat: feat,
		Seed: cfg.Seed,
		Host: cfg.hostOpts(),
		Warm: cfg.duration(60 * time.Millisecond),
		Meas: cfg.duration(240 * time.Millisecond),
	}
}

// pvfsSweep runs the concurrent read/write bandwidth test for client
// counts 1..6 against the given number of iods, reporting the CPU on the
// side that receives the data (client for reads, server for writes).
func pvfsSweep(cfg Config, iods int, write bool, id, title, note string) *Result {
	cpuCol := "client"
	if write {
		cpuCol = "server"
	}
	series := stats.NewSeries(title, "Clients",
		"non-I/OAT MB/s", "I/OAT MB/s", "tput benefit%",
		"non-I/OAT "+cpuCol+" CPU%", "I/OAT "+cpuCol+" CPU%", "rel CPU benefit%")
	rows := points(cfg, id, 6, func(i int) pvfsPair {
		run := func(feat ioat.Features) pvfs.Metrics {
			o := pvfsOptions(cfg, feat)
			o.IODs = iods
			o.Clients = i + 1
			o.Write = write
			return pvfs.Run(o)
		}
		return pvfsPair{run(ioat.None()), run(ioat.Linux())}
	})
	for i, r := range rows {
		pc, ac := r.Plain.ClientCPU, r.Accel.ClientCPU
		if write {
			pc, ac = r.Plain.ServerCPU, r.Accel.ServerCPU
		}
		series.Add(float64(i+1), "",
			r.Plain.MBps, r.Accel.MBps, pct(gain(r.Plain.MBps, r.Accel.MBps)),
			pct(pc), pct(ac), pct(stats.RelativeBenefit(pc, ac)))
	}
	return &Result{ID: id, Title: title, Series: series, Notes: []string{note}}
}

// Fig10a reproduces Figure 10a: PVFS concurrent read bandwidth with six
// I/O servers.
func Fig10a(cfg Config) *Result {
	return pvfsSweep(cfg, 6, false, "fig10a", "Fig 10a: PVFS Concurrent Read, 6 iods",
		"paper: 361->649 MB/s non-I/OAT vs 360->731 I/OAT (~12%); ~15% client CPU benefit")
}

// Fig10b reproduces Figure 10b: the same with five I/O servers.
func Fig10b(cfg Config) *Result {
	return pvfsSweep(cfg, 5, false, "fig10b", "Fig 10b: PVFS Concurrent Read, 5 iods",
		"paper: same trend as 10a with smaller benefits")
}

// Fig11a reproduces Figure 11a: PVFS concurrent write bandwidth with six
// I/O servers.
func Fig11a(cfg Config) *Result {
	return pvfsSweep(cfg, 6, true, "fig11a", "Fig 11a: PVFS Concurrent Write, 6 iods",
		"paper: 464->697 MB/s non-I/OAT vs 460->750 I/OAT (~8%); ~7% server CPU benefit")
}

// Fig11b reproduces Figure 11b: the same with five I/O servers.
func Fig11b(cfg Config) *Result {
	return pvfsSweep(cfg, 5, true, "fig11b", "Fig 11b: PVFS Concurrent Write, 5 iods",
		"paper: same trend as 11a with smaller benefits")
}

// Fig12 reproduces Figure 12: multi-stream PVFS read with 1..64 emulated
// clients on the compute node; the paper reports the client node's CPU,
// which runs *higher* with I/OAT because the clients pull data faster.
func Fig12(cfg Config) *Result {
	series := stats.NewSeries("Fig 12: Multi-Stream PVFS Read", "Clients",
		"non-I/OAT MB/s", "I/OAT MB/s", "non-I/OAT client CPU%", "I/OAT client CPU%")
	clientCounts := []int{1, 2, 4, 8, 16, 32, 64}
	rows := points(cfg, "fig12", len(clientCounts), func(i int) pvfsPair {
		run := func(feat ioat.Features) pvfs.Metrics {
			o := pvfsOptions(cfg, feat)
			o.IODs = 6
			o.Clients = clientCounts[i]
			o.Region = 2 * cost.MB
			return pvfs.Run(o)
		}
		return pvfsPair{run(ioat.None()), run(ioat.Linux())}
	})
	for i, r := range rows {
		series.Add(float64(clientCounts[i]), "",
			r.Plain.MBps, r.Accel.MBps, pct(r.Plain.ClientCPU), pct(r.Accel.ClientCPU))
	}
	return &Result{ID: "fig12", Title: "PVFS multi-stream read", Series: series,
		Notes: []string{"paper: I/OAT >= non-I/OAT throughput; client CPU ~10-12% higher with I/OAT (faster request rate)"}}
}
