package tcp

import (
	"testing"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/cpu"
	"ioatsim/internal/dma"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/nic"
	"ioatsim/internal/sim"
)

// FuzzTCPSegmentation drives one transfer through the full receive path
// — segmentation, link serialization, interrupt coalescing, buffer
// placement, the kernel-to-user (or DMA-engine) copy — across fuzzed
// payload sizes, MTUs (standard through jumbo), TSO and feature sets,
// under the runtime invariant checker. Whatever the geometry, the stream
// must deliver exactly n bytes, exactly once, and drain its kernel
// buffers.
func FuzzTCPSegmentation(f *testing.F) {
	f.Add(uint32(1), uint16(1500), false, uint8(0))
	f.Add(uint32(64*cost.KB), uint16(1500), true, uint8(1))
	f.Add(uint32(200*cost.KB+17), uint16(9000), false, uint8(2))
	f.Add(uint32(53), uint16(53), false, uint8(3))
	f.Add(uint32(3*cost.KB), uint16(576), true, uint8(2))

	f.Fuzz(func(t *testing.T, n32 uint32, mtu16 uint16, tso bool, featSel uint8) {
		n := int(n32)%(256*cost.KB) + 1
		// MSS is MTU-52; anything at or below the header size carries no
		// payload and cannot exist on a real link.
		mtu := int(mtu16)
		if mtu < 53 {
			mtu = 53
		}
		if mtu > 9000 {
			mtu = 9000
		}
		feats := []ioat.Features{ioat.None(), ioat.Linux(), ioat.DMAOnly(), ioat.Full()}
		feat := feats[int(featSel)%len(feats)]

		p := cost.Default()
		p.MTU = mtu
		p.TSO = tso

		chk := check.New()
		s := sim.New(sim.WithProbe(chk))
		mkNode := func(name string) *Stack {
			m := mem.NewModel(p)
			c := cpu.New(s, p)
			e := dma.New(s, p, m)
			nc := nic.New(s, p, c, m, e, feat, name, 1)
			st := NewStack(s, p, c, m, e, nc, feat, name)
			setChecker(st, chk)
			return st
		}
		sa, sb := mkNode("a"), mkNode("b")
		ca, cb := Pair(sa, sb, 0, 0)
		src := sa.Mem.Space.Alloc(min(n, 64*cost.KB), 0)
		dst := sb.Mem.Space.Alloc(min(n, 64*cost.KB), 0)

		received := false
		transfer(s, ca, cb, src, dst, n, func() { received = true })
		s.Run()

		if !received {
			t.Fatalf("n=%d mtu=%d tso=%v feat=%s: receiver never completed",
				n, mtu, tso, feat.Label())
		}
		if sa.BytesSent != int64(n) || sb.BytesReceived != int64(n) {
			t.Fatalf("n=%d mtu=%d tso=%v feat=%s: sent=%d received=%d — bytes lost or duplicated",
				n, mtu, tso, feat.Label(), sa.BytesSent, sb.BytesReceived)
		}
		if live := sb.NIC.PoolLiveBytes(); live != 0 {
			t.Fatalf("n=%d mtu=%d tso=%v feat=%s: %d bytes of kernel buffers leaked",
				n, mtu, tso, feat.Label(), live)
		}
		if fl := chk.Ledger("tcp:stream").InFlight(); fl != 0 {
			t.Fatalf("n=%d mtu=%d tso=%v feat=%s: %d stream bytes unaccounted at end of run",
				n, mtu, tso, feat.Label(), fl)
		}
		chk.Finish()
		if err := chk.Err(); err != nil {
			t.Fatalf("n=%d mtu=%d tso=%v feat=%s: %v", n, mtu, tso, feat.Label(), err)
		}
	})
}
