// Quickstart: build the paper's two-node testbed, stream 16 MB across
// one GbE port with and without I/OAT, and compare receiver CPU — the
// paper's core claim in ~40 lines, using only the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"ioatsim"
)

func transfer(feat ioatsim.Features) (mbps, cpu float64) {
	// Two dual-core dual-Xeon nodes with six 1-GbE ports, wired
	// port-to-port — the paper's Testbed 1.
	cluster, sender, receiver := ioatsim.Testbed1(ioatsim.DefaultParams(), feat, 1)
	defer cluster.Close()

	conn, peer := ioatsim.Pair(sender.Stack, receiver.Stack, 0, 0)
	src := sender.Buf(64 * ioatsim.KB)
	dst := receiver.Buf(64 * ioatsim.KB)

	// One task per side; each runs its transfer and calls back when it
	// is done.
	const total = 16 * ioatsim.MB
	var done ioatsim.Time
	tx := ioatsim.NewSender(conn, cluster.S.NewTask("sender"))
	rx := ioatsim.NewReceiver(peer, cluster.S.NewTask("receiver"))
	tx.Task().Start(func() { tx.Send(src, total, func() {}) })
	rx.Task().Start(func() { rx.Recv(dst, total, func() { done = cluster.S.Now() }) })
	cluster.S.Run()

	elapsed := time.Duration(done)
	return float64(total*8) / elapsed.Seconds() / 1e6, receiver.CPU.Utilization()
}

func main() {
	plainMbps, plainCPU := transfer(ioatsim.NonIOAT())
	ioatMbps, ioatCPU := transfer(ioatsim.IOAT())

	fmt.Println("16 MB bulk transfer over one 1-GbE port:")
	fmt.Printf("  %-10s %8.1f Mbps  receiver CPU %5.2f%%\n", "non-I/OAT", plainMbps, plainCPU*100)
	fmt.Printf("  %-10s %8.1f Mbps  receiver CPU %5.2f%%\n", "I/OAT", ioatMbps, ioatCPU*100)
	rel := (plainCPU - ioatCPU) / plainCPU * 100
	fmt.Printf("same wire speed, %.0f%% relative CPU benefit — the paper's core result\n", rel)
}
