package tcp

import (
	"runtime"
	"testing"

	"ioatsim/internal/cost"
	"ioatsim/internal/ioat"
)

// BenchmarkSteadyStatePacketPath streams messages between two nodes and
// measures the allocation behaviour of the whole per-message machinery:
// send syscall + copy pricing, link chunk, NIC softirq, pending queue,
// recv copy (CPU or engine), credits and wake-ups. After a warm-up that
// fills every free list, the steady state must allocate nothing — the
// benchmark fails if a single allocation happens in the measured window.
func BenchmarkSteadyStatePacketPath(b *testing.B) {
	cases := []struct {
		name string
		feat ioat.Features
	}{
		{"traditional", ioat.None()},
		{"ioat-dma", ioat.DMAOnly()},
		{"ioat-full", ioat.Full()},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			p := cost.Default()
			s, na, nb := twoNodes(bc.feat, p)
			ca, cb := Pair(na.st, nb.st, 0, 0)
			const msg = 32 * cost.KB
			src := na.buf(64 * cost.KB)
			dst := nb.buf(64 * cost.KB)

			// The streaming loops run on the continuation API — the same
			// machinery the figure experiments use in steady state. All
			// construction (state machines, loop closures) happens here,
			// before the warm-up.
			tx := NewSender(ca, s.NewTask("tx"))
			rx := NewReceiver(cb, s.NewTask("rx"))
			txLeft, rxLeft, received := 0, 0, 0
			var txLoop, rxLoop func()
			txLoop = func() {
				if txLeft == 0 {
					return
				}
				txLeft--
				tx.Send(src, msg, txLoop)
			}
			rxDone := func() { received++; rxLoop() }
			rxLoop = func() {
				if rxLeft == 0 {
					return
				}
				rxLeft--
				rx.Recv(dst, msg, rxDone)
			}

			// Warm-up run to full drain: free lists only reach their
			// high-water mark when all in-flight traffic retires, so the
			// warm phase must include its own drain tail for every slice
			// (chunk pool, pending pool, event heap) to reach final
			// capacity before the measured burst starts.
			const warm = 64
			txLeft, rxLeft = warm, warm
			tx.Task().Start(txLoop)
			rx.Task().Start(rxLoop)
			s.Run()

			txLeft, rxLeft, received = b.N, b.N, 0
			tx.Task().Start(txLoop)
			rx.Task().Start(rxLoop)

			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for received < b.N {
				if !s.Step() {
					b.Fatal("simulation drained before all messages arrived")
				}
			}
			runtime.ReadMemStats(&after)
			b.StopTimer()
			// Mallocs is process-wide, so the runtime itself (GC metadata,
			// timers) can contribute a stray object or two; a real leak in
			// the packet path scales with the message count. Allow the
			// former, fail on the latter.
			if n := after.Mallocs - before.Mallocs; n > 4+uint64(b.N)/16 {
				b.Fatalf("steady-state packet path allocated %d objects over %d messages; want 0",
					n, b.N)
			}
		})
	}
}
