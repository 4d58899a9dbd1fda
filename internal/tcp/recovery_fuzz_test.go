package tcp

import (
	"math"
	"testing"

	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/ioat"
)

// FuzzTCPLossRecovery drives one checked transfer through the recovery
// machine under fuzzed loss: either a deterministic drop mask (with the
// window clamped to one chunk, so any mask with a clear bit guarantees
// progress) or calibrated random loss (per-chunk drop probability capped
// at 0.75 regardless of how many frames the fuzzed MTU packs into a
// chunk — naive per-frame rates go to certain-loss at tiny MTUs).
// Whatever the geometry and loss pattern, the run must terminate with
// exactly-once in-order delivery, a balanced stream ledger, drained
// kernel buffers, and a clean invariant audit.
func FuzzTCPLossRecovery(f *testing.F) {
	f.Add(uint32(64*cost.KB), uint16(1500), false, uint8(0), uint64(1), uint8(10), false)
	f.Add(uint32(256*cost.KB), uint16(1500), true, uint8(3), uint64(7), uint8(75), false)
	f.Add(uint32(200*cost.KB+17), uint16(9000), false, uint8(2), uint64(3), uint8(40), true)
	f.Add(uint32(3*cost.KB), uint16(53), false, uint8(1), uint64(9), uint8(60), false)
	f.Add(uint32(128*cost.KB), uint16(576), true, uint8(2), uint64(0xdead), uint8(255), true)

	f.Fuzz(func(t *testing.T, n32 uint32, mtu16 uint16, tso bool, featSel uint8,
		seed uint64, loss8 uint8, useMask bool) {
		n := int(n32)%(256*cost.KB) + 1
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

		plan := fault.Plan{Seed: seed, MaxRetries: -1}
		if useMask {
			// Deterministic schedule. Go-back-N can resonate with a
			// periodic mask when it retransmits batches (the batch
			// stride can pin one segment onto set bits forever), so
			// clamp the window to a single chunk: every retry then
			// advances the mask index by one and must reach the forced
			// clear bit.
			p.SockBuf = p.ChunkMax
			bits := int(seed%63) + 2
			mask := seed | (seed >> 7)
			mask &^= 1 << (seed % uint64(bits)) // at least one clear bit
			plan.DropMask = mask
			plan.MaskBits = bits
		} else {
			// Calibrated random loss: per-chunk drop probability q,
			// translated to the per-frame rate of the largest chunk this
			// geometry produces.
			q := float64(loss8%76) / 100
			chunk := n
			if chunk > p.ChunkMax {
				chunk = p.ChunkMax
			}
			plan.LossRate = 1 - math.Pow(1-q, 1/float64(p.Frames(chunk)))
		}

		fn := newFaultNet(feat, p, plan)
		ca, cb := Pair(fn.sa, fn.sb, 0, 0)
		src := fn.sa.Mem.Space.Alloc(min(n, 64*cost.KB), 0)
		dst := fn.sb.Mem.Space.Alloc(min(n, 64*cost.KB), 0)
		received := false
		transfer(fn.s, ca, cb, src, dst, n, func() { received = true })
		fn.s.Run()

		id := func() string {
			return "n=" + itod(n) + " mtu=" + itod(mtu) + " feat=" + feat.Label()
		}
		if !received {
			t.Fatalf("%s: receiver never completed", id())
		}
		if fn.sa.BytesSent != int64(n) || fn.sb.BytesReceived != int64(n) {
			t.Fatalf("%s: sent=%d received=%d — bytes lost or duplicated",
				id(), fn.sa.BytesSent, fn.sb.BytesReceived)
		}
		if fn.sb.AcceptedBytes != int64(n) {
			t.Fatalf("%s: accepted %d of %d stream bytes", id(), fn.sb.AcceptedBytes, n)
		}
		if got := fn.sb.DeliveredUpBytes; got != fn.sb.AcceptedBytes+fn.sb.RxDiscardBytes {
			t.Fatalf("%s: receive ledger unbalanced: up=%d accepted=%d discarded=%d",
				id(), got, fn.sb.AcceptedBytes, fn.sb.RxDiscardBytes)
		}
		dropped := fn.in.Totals().LinkDroppedBytes
		if dropped > 0 && fn.sa.RetransmitBytes == 0 {
			t.Fatalf("%s: %d bytes dropped but nothing retransmitted", id(), dropped)
		}
		if fl := fn.chk.Ledger("tcp:stream").InFlight(); fl != 0 {
			t.Fatalf("%s: %d stream bytes unaccounted at end of run", id(), fl)
		}
		if live := fn.sb.NIC.PoolLiveBytes(); live != 0 {
			t.Fatalf("%s: %d bytes of kernel buffers leaked", id(), live)
		}
		fn.chk.Finish()
		if err := fn.chk.Err(); err != nil {
			t.Fatalf("%s: %v", id(), err)
		}
	})
}

// itod renders a small positive int (test labels only).
func itod(n int) string {
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
