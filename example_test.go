package ioatsim_test

import (
	"fmt"

	"ioatsim"
)

// Stream 16 MB over one port of Testbed 1 with I/OAT on: a sender task
// and a receiver task each run one transfer, and the receiving node's
// CPU utilization is read back when the run drains.
func Example() {
	cluster, sender, receiver := ioatsim.Testbed1(ioatsim.DefaultParams(), ioatsim.IOAT(), 1)
	defer cluster.Close()
	conn, peer := ioatsim.Pair(sender.Stack, receiver.Stack, 0, 0)
	src, dst := sender.Buf(64<<10), receiver.Buf(64<<10)
	tx := ioatsim.NewSender(conn, cluster.S.NewTask("tx"))
	rx := ioatsim.NewReceiver(peer, cluster.S.NewTask("rx"))
	tx.Task().Start(func() { tx.Send(src, 16<<20, func() {}) })
	rx.Task().Start(func() { rx.Recv(dst, 16<<20, func() {}) })
	cluster.S.Run()
	fmt.Printf("receiver CPU %.2f%%\n", receiver.CPU.Utilization()*100)
	// Output:
	// receiver CPU 4.30%
}
