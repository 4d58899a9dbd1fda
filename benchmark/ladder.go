package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"testing"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/cost"
	"ioatsim/internal/dma"
	"ioatsim/internal/fault"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/link"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
	"ioatsim/internal/sweep"
	"ioatsim/internal/tcp"
)

// rung is one microbenchmark of the layer ladder. Each calls only
// exported functions of one layer. The reported value is ns/op divided
// by div, in unit.
type rung struct {
	name string
	unit string
	div  float64
	// zeroAlloc marks the steady-state paths the repository's own
	// benchmarks promise at 0 allocs/op; allocating there fails the run.
	zeroAlloc bool
	fn        func(b *testing.B)
}

const (
	rangeChunk = 64 << 10 // one socket-buffer chunk
	cacheLine  = 64       // cost.Default().CacheLine
	frameBytes = 1500
	packetMsg  = 64 << 10
)

var rungs = []rung{
	{name: "sim.schedule_ns", unit: "ns", div: 1, zeroAlloc: true, fn: benchSchedule},
	{name: "sim.task_wake_ns", unit: "ns", div: 1, zeroAlloc: true, fn: benchTaskWake},
	{name: "sim.proc_wake_ns", unit: "ns", div: 1, fn: benchProcWake},
	{name: "mem.access_range_ns_per_line", unit: "ns", div: rangeChunk / cacheLine, fn: benchAccessRange},
	{name: "mem.random_cost_ns_per_line", unit: "ns", div: 1, fn: benchRandomCost},
	{name: "mem.copy_cost_ns", unit: "ns", div: 1, fn: benchCopyCost},
	{name: "mem.invalidate_ns", unit: "ns", div: 1, fn: benchInvalidate},
	{name: "link.send_ns", unit: "ns", div: 1, fn: benchLinkSend},
	{name: "dma.submit_complete_ns", unit: "ns", div: 1, fn: benchDMA},
	{name: "tcp.packet_path_ns.traditional", unit: "ns", div: 1, zeroAlloc: true, fn: benchPacketPath(ioat.None())},
	{name: "tcp.packet_path_ns.ioat_dma", unit: "ns", div: 1, zeroAlloc: true, fn: benchPacketPath(ioat.DMAOnly())},
	{name: "tcp.packet_path_ns.ioat_full", unit: "ns", div: 1, zeroAlloc: true, fn: benchPacketPath(ioat.Full())},
	{name: "host.testbed1_build_us", unit: "us", div: 1e3, fn: benchTestbed},
	{name: "sweep.key_ns", unit: "ns", div: 1, fn: benchKey},
	{name: "sweep.cache_hit_ns", unit: "ns", div: 1, fn: benchCacheHit},
	{name: "bench.request_decode_us", unit: "us", div: 1e3, fn: benchRequest},
}

// runLadderChild runs the ladder in its own child process, so no
// workload's heap or goroutines share its measurements.
func runLadderChild(o options) *childReport {
	benchtime := "100ms"
	if o.smoke {
		benchtime = "100x"
	}
	rep := &childReport{ReadyNS: time.Now().UnixNano(), Attempted: len(rungs)}
	rec := &recorder{}
	ms, failures, err := runLadder(benchtime, rec)
	if err != nil {
		rep.fail("ladder: %v", err)
		return rep
	}
	rep.Failures = failures
	rep.Metrics = ms
	rep.Spans = rec.spans
	return rep
}

// runLadder runs every rung with testing.Benchmark for about benchtime
// each ("100x" style counts work too) and returns its metrics. Each
// batch of calls (one b.N) becomes one span.
func runLadder(benchtime string, rec *recorder) (map[string]metric, []string, error) {
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", benchtime); err != nil {
		return nil, nil, fmt.Errorf("benchtime %q: %w", benchtime, err)
	}
	out := map[string]metric{}
	var failures []string
	for _, r := range rungs {
		res := testing.Benchmark(func(b *testing.B) {
			t0 := time.Now()
			r.fn(b)
			rec.add(span{Name: fmt.Sprintf("%s N=%d", r.name, b.N)}, t0, time.Now())
		})
		if res.N == 0 {
			failures = append(failures, "ladder "+r.name+": benchmark failed")
			continue
		}
		out[r.name] = metric{float64(res.T.Nanoseconds()) / float64(res.N) / r.div, r.unit}
		out[r.name+".allocs"] = metric{float64(res.AllocsPerOp()), "allocs/op"}
		if r.zeroAlloc && res.AllocsPerOp() > 0 {
			failures = append(failures, fmt.Sprintf("ladder %s: %d allocs/op on a path promised at 0",
				r.name, res.AllocsPerOp()))
		}
	}
	return out, failures, nil
}

// benchSchedule: one Schedule+Step with 64k events pending, the deep
// queue the data-center and PVFS sweeps build.
func benchSchedule(b *testing.B) {
	s := sim.New()
	fn := func() {}
	for i := 0; i < 64*1024; i++ {
		s.Schedule(time.Duration(i+1)*time.Microsecond, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(70*time.Millisecond, fn)
		s.Step()
	}
}

// benchTaskWake: one continuation wake, dispatched by Run.
func benchTaskWake(b *testing.B) {
	s := sim.New()
	t := s.NewTask("t")
	n := 0
	t.OnWake(func() {
		n++
		if n < b.N {
			t.WakeAfter(time.Microsecond)
		}
	})
	t.WakeAfter(time.Microsecond)
	b.ResetTimer()
	s.Run()
}

// benchProcWake: one goroutine-process wake (two host context switches).
func benchProcWake(b *testing.B) {
	s := sim.New()
	s.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	s.Run()
}

// benchAccessRange: a 64K range walk streaming through 4x the cache, so
// every line misses; reported per line.
func benchAccessRange(b *testing.B) {
	c := mem.NewModel(cost.Default()).Cache
	const chunks = 4 * (2 << 20) / rangeChunk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRange(mem.Addr(i%chunks*rangeChunk), rangeChunk)
	}
}

// benchRandomCost: one dependent line read in a 1.5 MB working set, the
// data-center tiers' pattern (~75% hits).
func benchRandomCost(b *testing.B) {
	m := mem.NewModel(cost.Default())
	const ws = 1536 << 10
	m.TouchCost(0, ws)
	rnd := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		m.RandomCost(mem.Addr(int(rnd>>33)%(ws/cacheLine)*cacheLine), 1)
	}
}

// benchCopyCost: one 64K CPU copy priced through the cache, source and
// destination each cycling through 8 MB.
func benchCopyCost(b *testing.B) {
	m := mem.NewModel(cost.Default())
	const span = 8 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := mem.Addr(i * rangeChunk % span)
		m.CopyCost(off, span+off, rangeChunk)
	}
}

// benchInvalidate: the DMA-write coherence step for one 1500-byte frame.
func benchInvalidate(b *testing.B) {
	c := mem.NewModel(cost.Default()).Cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Invalidate(mem.Addr(i%1024)*frameBytes, frameBytes)
	}
}

// benchLinkSend: one jumbo chunk through Port.Send and its delivery event.
func benchLinkSend(b *testing.B) {
	s := sim.New()
	src := link.NewPort(s, "a", 0, 1_000_000_000, 5*time.Microsecond)
	dst := link.NewPort(s, "b", 0, 1_000_000_000, 5*time.Microsecond)
	dst.Deliver = func(c *link.Chunk) { c.Release() }
	pool := link.NewChunkPool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := pool.Get()
		c.Bytes, c.Frames, c.WireBytes = 8960, 1, 9038
		src.Send(dst, c)
		s.Step()
	}
}

// benchDMA: one 4K engine copy, Submit through completion to Recycle.
func benchDMA(b *testing.B) {
	p := cost.Default()
	s := sim.New()
	e := dma.New(s, p, mem.NewModel(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := e.Submit(0, 1<<20, 4096)
		s.Step()
		e.Recycle(done)
	}
}

// benchPacketPath returns a rung streaming 64K messages between the two
// nodes of host.Testbed1 over the continuation transport, per message,
// after a warm-up that fills every free list.
func benchPacketPath(feat ioat.Features) func(b *testing.B) {
	return func(b *testing.B) {
		cl, na, nb := host.Testbed1(cost.Default(), feat, 1)
		ca, cb := tcp.Pair(na.Stack, nb.Stack, 0, 0)
		src, dst := na.Buf(packetMsg), nb.Buf(packetMsg)
		tx := tcp.NewSender(ca, cl.S.NewTask("tx"))
		rx := tcp.NewReceiver(cb, cl.S.NewTask("rx"))
		txLeft, rxLeft, received := 0, 0, 0
		var txLoop, rxLoop func()
		txLoop = func() {
			if txLeft > 0 {
				txLeft--
				tx.Send(src, packetMsg, txLoop)
			}
		}
		rxDone := func() { received++; rxLoop() }
		rxLoop = func() {
			if rxLeft > 0 {
				rxLeft--
				rx.Recv(dst, packetMsg, rxDone)
			}
		}
		txLeft, rxLeft = 64, 64
		tx.Task().Start(txLoop)
		rx.Task().Start(rxLoop)
		cl.S.Run()

		txLeft, rxLeft, received = b.N, b.N, 0
		tx.Task().Start(txLoop)
		rx.Task().Start(rxLoop)
		b.ResetTimer()
		for received < b.N {
			if !cl.S.Step() {
				b.Fatal("simulation drained before every message arrived")
			}
		}
	}
}

// benchTestbed: building the two-node Testbed 1 cluster.
func benchTestbed(b *testing.B) {
	p := cost.Default()
	for i := 0; i < b.N; i++ {
		host.Testbed1(p, ioat.Full(), uint64(i))
	}
}

// benchKey: one point-cache key over the parts a figure point hashes,
// including a full cost.Params.
func benchKey(b *testing.B) {
	p := cost.Default()
	for i := 0; i < b.N; i++ {
		sweep.Key("ioatsim-v6", "micro", uint64(1), 0.25, (*fault.Plan)(nil),
			[]bench.CostOverride(nil), []any{i % 6, "ioat-full", p})
	}
}

// cachedRow has the shape of a micro-benchmark sweep row.
type cachedRow struct{ Mbps, CPURecv, CPUSend float64 }

// benchCacheHit: a one-point sweep served from a warm point cache
// (lookup plus gob decode).
func benchCacheHit(b *testing.B) {
	c := sweep.NewPointCache("")
	key := func(int) string { return "point" }
	row := func(int) cachedRow { return cachedRow{940.5, 0.31, 0.42} }
	sweep.CachedRun(c, 1, 1, key, row)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.CachedRunCtx(ctx, c, 1, 1, key, row); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRequest: one ioatd job body through DecodeRequest, Validate and
// Config.
func benchRequest(b *testing.B) {
	body := []byte(catalogueEntry{Runner: "fig3a", Seed: 7}.body())
	for i := 0; i < b.N; i++ {
		q, err := bench.DecodeRequest(bytes.NewReader(body))
		if err == nil {
			err = q.Validate(1)
		}
		if err == nil {
			_, _, err = q.Config(1)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
