package tcp

import (
	"testing"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
)

// blockingRow is the observable schedule of one blocking-transfer run.
type blockingRow struct {
	end, rxDone    sim.Time
	executed       uint64
	txBusy, rxBusy time.Duration
	retransmits    int64
}

// runBlocking streams messages of 1 B to 1 MB from a to b through the
// blocking Send/Recv calls, each message received in two pieces, and
// returns what the schedule looked like.
func runBlocking(feat ioat.Features, sockBuf int, zeroCopy bool, loss float64) blockingRow {
	p := cost.Default()
	if sockBuf > 0 {
		p.SockBuf = sockBuf
	}
	var s *sim.Simulator
	var sa, sb *Stack
	if loss > 0 {
		fn := newFaultNet(feat, p, fault.Plan{Seed: 7, LossRate: loss})
		s, sa, sb = fn.s, fn.sa, fn.sb
	} else {
		var a, b *node
		s, a, b = twoNodes(feat, p)
		sa, sb = a.st, b.st
	}
	ca, cb := Pair(sa, sb, 0, 0)
	src := sa.Mem.Space.Alloc(64*cost.KB, 0)
	dst := sb.Mem.Space.Alloc(64*cost.KB, 0)
	sizes := []int{1, 100, 1500, 9000, 64*cost.KB + 7, 300 * cost.KB, cost.MB}
	s.Spawn("tx", func(pr *sim.Proc) {
		for _, n := range sizes {
			ca.SendOpts(pr, src, n, SendOptions{ZeroCopy: zeroCopy})
		}
	})
	var row blockingRow
	s.Spawn("rx", func(pr *sim.Proc) {
		for _, n := range sizes {
			cb.Recv(pr, dst, n/3)
			cb.Recv(pr, dst, n-n/3)
		}
		row.rxDone = pr.Now()
	})
	row.end = s.Run()
	row.executed = s.Executed()
	row.txBusy, row.rxBusy = sa.CPU.BusyTime(), sb.CPU.BusyTime()
	row.retransmits = sa.Retransmits
	return row
}

// TestBlockingTransferSchedule pins the blocking transport's schedule
// across every feature set, socket buffer (32 KB stalls the window on
// every chunk), zero copy and loss. The shims over Sender/Receiver
// reproduce these values only because the done callback resumes the
// process inside the completing event: a resume scheduled as its own
// event moves every row.
func TestBlockingTransferSchedule(t *testing.T) {
	want := []blockingRow{
		// traditional: sockbuf 32 KB, 128 KB, default; copy, zero copy; lossless, lossy.
		{12272138, 12270138, 1931, 2086382, 3480285, 0},
		{112054934, 111349056, 2175, 2116032, 3499827, 3},
		{12271634, 12269634, 1951, 1884600, 3490256, 0},
		{100001550, 12269634, 2181, 1885500, 3490256, 0},
		{12288402, 12286402, 519, 1674388, 2842278, 0},
		{100001600, 13499566, 591, 1787288, 2944216, 5},
		{12287898, 12285898, 528, 1456850, 2846803, 0},
		{100001550, 13497624, 601, 1569750, 2963207, 5},
		{12282532, 12280532, 362, 1619918, 2786193, 0},
		{100001600, 14511604, 421, 1838618, 3013925, 7},
		{12284908, 12282908, 387, 1409500, 2797756, 0},
		{100001550, 43527996, 1076, 7087250, 11690230, 220},
		// I/OAT-DMA: sockbuf 32 KB, 128 KB, default; copy, zero copy; lossless, lossy.
		{12253502, 12251502, 2103, 1997632, 2787338, 0},
		{100001600, 12530926, 2323, 2026132, 2820794, 5},
		{12252998, 12250998, 2111, 1791750, 2791854, 0},
		{112119638, 111969098, 2358, 1876600, 2864764, 13},
		{12278886, 12276886, 617, 1668364, 2228702, 0},
		{100001600, 13487298, 685, 1781264, 2321868, 5},
		{12277662, 12275662, 619, 1447300, 2228702, 0},
		{100001550, 13486074, 687, 1560200, 2321868, 5},
		{12272757, 12270757, 445, 1617814, 2175326, 0},
		{100001600, 14501829, 503, 1836514, 2383450, 7},
		{12273693, 12271693, 465, 1402700, 2182274, 0},
		{100001550, 41278509, 948, 5914350, 8619342, 152},
		// I/OAT: sockbuf 32 KB, 128 KB, default; copy, zero copy; lossless, lossy.
		{12253502, 12251502, 2103, 1997632, 2787338, 0},
		{100001600, 12530926, 2323, 2026132, 2820794, 5},
		{12252998, 12250998, 2111, 1791750, 2791854, 0},
		{112119638, 111969098, 2358, 1876600, 2864764, 13},
		{12278886, 12276886, 617, 1668364, 2228702, 0},
		{100001600, 13487298, 685, 1781264, 2321868, 5},
		{12277662, 12275662, 619, 1447300, 2228702, 0},
		{100001550, 13486074, 687, 1560200, 2321868, 5},
		{12272757, 12270757, 445, 1617814, 2175326, 0},
		{100001600, 14501829, 503, 1836514, 2383450, 7},
		{12273693, 12271693, 465, 1402700, 2182274, 0},
		{100001550, 41278509, 948, 5914350, 8619342, 152},
		// I/OAT-FULL: sockbuf 32 KB, 128 KB, default; copy, zero copy; lossless, lossy.
		{12253502, 12251502, 2103, 1997632, 2787338, 0},
		{100001600, 12530926, 2323, 2026132, 2820794, 5},
		{12252998, 12250998, 2111, 1791750, 2791854, 0},
		{112119638, 111969098, 2358, 1876600, 2864764, 13},
		{12278886, 12276886, 617, 1668364, 2228702, 0},
		{100001600, 13487298, 685, 1781264, 2321868, 5},
		{12277662, 12275662, 619, 1447300, 2228702, 0},
		{100001550, 13486074, 687, 1560200, 2321868, 5},
		{12272757, 12270757, 445, 1617814, 2175326, 0},
		{100001600, 14501829, 503, 1836514, 2383450, 7},
		{12273693, 12271693, 465, 1402700, 2182274, 0},
		{100001550, 41278509, 948, 5914350, 8619342, 152},
	}
	i := 0
	for _, feat := range []ioat.Features{ioat.None(), ioat.DMAOnly(), ioat.Linux(), ioat.Full()} {
		for _, sockBuf := range []int{32 * cost.KB, 128 * cost.KB, 0} {
			for _, zc := range []bool{false, true} {
				for _, loss := range []float64{0, 0.002} {
					if row := runBlocking(feat, sockBuf, zc, loss); row != want[i] {
						t.Errorf("%s sockbuf=%d zerocopy=%v loss=%v:\n got %+v\nwant %+v",
							feat.Label(), sockBuf, zc, loss, row, want[i])
					}
					i++
				}
			}
		}
	}
}
