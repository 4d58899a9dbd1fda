package bench

import (
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/datacenter"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/ipc"
	"ioatsim/internal/sim"
	"ioatsim/internal/stats"
)

// Ext3Tier evaluates the paper's third workload class (§5.1, "dynamic
// content ... via CGI, PHP and Java servlets with a back-end database"),
// which the paper describes but does not measure: a full three-tier
// data-center (proxy -> application servers -> database) swept over the
// number of database queries per request.
func Ext3Tier(cfg Config) *Result {
	series := stats.NewSeries("Extension: 3-tier dynamic content", "DB queries/req",
		"non-I/OAT TPS", "I/OAT TPS", "TPS benefit%", "app CPU%", "db CPU%")
	queryCounts := []int{1, 3, 5}
	type tierRow struct{ Plain, Accel datacenter.ThreeTierMetrics }
	rows := points(cfg, "ext3tier", len(queryCounts), func(i int) tierRow {
		run := func(feat ioat.Features) datacenter.ThreeTierMetrics {
			o := datacenter.ThreeTierOptions{Options: dcOptions(cfg, feat)}
			o.QueriesPerRequest = queryCounts[i]
			o.ResponseBytes = 8 * cost.KB
			return datacenter.RunThreeTier(o)
		}
		return tierRow{run(ioat.None()), run(ioat.Linux())}
	})
	for i, r := range rows {
		series.Add(float64(queryCounts[i]), "",
			r.Plain.TPS, r.Accel.TPS, pct(gain(r.Plain.TPS, r.Accel.TPS)),
			pct(r.Accel.AppCPU), pct(r.Accel.DBCPU))
	}
	return &Result{ID: "ext3tier", Title: "Extension: 3-tier dynamic content", Series: series,
		Notes: []string{"the paper's §5.1 third workload class, not measured there: I/OAT helps the inter-tier hops"}}
}

// ExtIPC evaluates the paper's §7 intra-node use of the copy engine:
// shared-memory message passing between two processes, CPU copies vs
// engine copies, across message sizes.
func ExtIPC(cfg Config) *Result {
	series := stats.NewSeries("Extension: intra-node IPC via the copy engine", "Size",
		"CPU-copy MB/s", "engine MB/s", "CPU-copy cpu%", "engine cpu%")
	sizes := []int{4 * cost.KB, 16 * cost.KB, 64 * cost.KB}
	type ipcRow struct{ CPUMBps, EngMBps, CPUUtil, EngUtil float64 }
	rows := points(cfg, "extipc", len(sizes), func(i int) ipcRow {
		size := sizes[i]
		run := func(mode ipc.Mode) (float64, float64) {
			cl := host.NewCluster(cfg.params(), cfg.Seed, cfg.hostOpts()...)
			defer cl.Close()
			n := cl.Add("n", ioat.Linux(), 1)
			ch := ipc.New(n, size, 16)
			ch.Mode = mode
			src := n.Buf(size)
			dst := n.Buf(size)
			producer := cl.S.NewTask("producer")
			var send func()
			send = func() { ch.Send(producer, src, size, send) }
			producer.Start(send)
			consumer := cl.S.NewTask("consumer")
			var recv func(int)
			recv = func(int) { ch.Recv(consumer, dst, recv) }
			consumer.Start(func() { recv(0) })
			meas := cfg.duration(20 * time.Millisecond)
			cl.S.RunUntil(sim.Time(meas / 4))
			cl.ResetMeters()
			mark := ch.Bytes
			cl.S.RunUntil(sim.Time(meas/4 + meas))
			mbps := float64(ch.Bytes-mark) / meas.Seconds() / 1e6
			util := n.CPU.Utilization()
			cl.MustVerify()
			return mbps, util
		}
		var r ipcRow
		r.CPUMBps, r.CPUUtil = run(ipc.CPUCopy)
		r.EngMBps, r.EngUtil = run(ipc.EngineCopy)
		return r
	})
	for i, r := range rows {
		series.Add(float64(sizes[i]), sizeLabel(sizes[i]),
			r.CPUMBps, r.EngMBps, pct(r.CPUUtil), pct(r.EngUtil))
	}
	return &Result{ID: "extipc", Title: "Extension: intra-node IPC", Series: series,
		Notes: []string{
			"the paper's §7 proposal, quantified: the engine cannot beat hot-cache memcpy bandwidth (Fig. 6's copy-cache result),",
			"but it runs the channel at a fraction of the CPU — the freed cycles are the point, exactly as on the network path",
		}}
}
