// Command ttcp drives the socket micro-benchmarks on the simulated
// Testbed 1, in the style of the ttcp tool the paper uses (§4): choose a
// traffic pattern, port count, message size and feature set, and read
// back goodput and CPU utilization.
//
// Examples:
//
//	ttcp -mode bw -ports 6 -ioat            # Fig. 3a's I/OAT point
//	ttcp -mode bidir -ports 6               # Fig. 3b's non-I/OAT point
//	ttcp -mode multi -threads 12 -msg 16384 # Fig. 4's 12-thread point
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

func main() {
	var (
		mode     = flag.String("mode", "bw", "traffic pattern: bw | bidir | multi")
		ports    = flag.Int("ports", 6, "number of 1-GbE ports (1..6)")
		threads  = flag.Int("threads", 0, "streams for -mode multi (default: ports)")
		msgSize  = flag.Int("msg", 64*cost.KB, "message size in bytes")
		useIOAT  = flag.Bool("ioat", false, "enable I/OAT (split headers + DMA copy engine)")
		rss      = flag.Bool("rss", false, "also enable multiple receive queues")
		sockbuf  = flag.Int("sockbuf", 256*cost.KB, "socket buffer bytes")
		mtu      = flag.Int("mtu", 1500, "MTU in bytes")
		tso      = flag.Bool("tso", false, "enable transmit segmentation offload")
		duration = flag.Duration("t", 200*time.Millisecond, "measured (virtual) duration")
		seed     = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if *ports < 1 || *ports > 6 {
		fmt.Fprintln(os.Stderr, "ttcp: ports must be 1..6")
		os.Exit(1)
	}

	p := cost.Default()
	p.SockBuf = *sockbuf
	p.MTU = *mtu
	p.TSO = *tso

	feat := ioat.None()
	if *useIOAT {
		feat = ioat.Linux()
	}
	if *rss {
		feat.MultiQueue = true
	}

	cl, a, b := host.Testbed1(p, feat, *seed)
	nstreams := *ports
	if *mode == "multi" && *threads > 0 {
		nstreams = *threads
	}

	launch := func(from, to *host.Node, port int) {
		ca, cb := tcp.Pair(from.Stack, to.Stack, port, port)
		src := from.Buf(min(*msgSize, 256*cost.KB))
		dst := to.Buf(min(*msgSize, 256*cost.KB))
		from.CPU.RegisterThread()
		to.CPU.RegisterThread()
		tx := tcp.NewSender(ca, cl.S.NewTask("tx"))
		var txLoop func()
		txLoop = func() { tx.Send(src, *msgSize, txLoop) }
		tx.Task().Start(txLoop)
		rx := tcp.NewReceiver(cb, cl.S.NewTask("rx"))
		var rxLoop func()
		rxLoop = func() { rx.Recv(dst, *msgSize, rxLoop) }
		rx.Task().Start(rxLoop)
	}

	switch *mode {
	case "bw":
		for i := 0; i < *ports; i++ {
			launch(a, b, i)
		}
	case "bidir":
		for i := 0; i < *ports; i++ {
			launch(a, b, i)
			launch(b, a, i)
		}
	case "multi":
		for i := 0; i < nstreams; i++ {
			launch(a, b, i%*ports)
		}
	default:
		fmt.Fprintf(os.Stderr, "ttcp: unknown mode %q\n", *mode)
		os.Exit(1)
	}

	warm := *duration / 4
	cl.S.RunUntil(sim.Time(warm))
	cl.ResetMeters()
	markB := b.Stack.BytesReceived
	markA := a.Stack.BytesReceived
	cl.S.RunUntil(sim.Time(warm + *duration))

	rx := b.Stack.BytesReceived - markB
	if *mode == "bidir" {
		rx += a.Stack.BytesReceived - markA
	}
	mbps := float64(rx*8) / duration.Seconds() / 1e6
	fmt.Printf("mode=%s ports=%d streams=%d msg=%d feat=%s\n",
		*mode, *ports, nstreams, *msgSize, feat.Label())
	fmt.Printf("goodput: %.1f Mbps\n", mbps)
	fmt.Printf("CPU: node1=%.1f%% node2=%.1f%% (node2 rx-core0 %.1f%%)\n",
		a.CPU.Utilization()*100, b.CPU.Utilization()*100, b.CPU.CoreUtilization(0)*100)
}
