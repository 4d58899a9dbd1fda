package ioatsim

import (
	"testing"
	"time"
)

// TestPublicAPISurface drives the library exactly as a downstream user
// would: only exported root-package identifiers.
func TestPublicAPISurface(t *testing.T) {
	cluster, sender, receiver := Testbed1(DefaultParams(), IOAT(), 1)
	conn, peer := Pair(sender.Stack, receiver.Stack, 0, 0)
	src, dst := sender.Buf(64*KB), receiver.Buf(64*KB)

	var done Time
	tx := NewSender(conn, cluster.S.NewTask("tx"))
	rx := NewReceiver(peer, cluster.S.NewTask("rx"))
	tx.Task().Start(func() { tx.Send(src, 4*MB, func() {}) })
	rx.Task().Start(func() { rx.Recv(dst, 4*MB, func() { done = rx.Task().Now() }) })
	cluster.S.Run()
	if done <= 0 {
		t.Fatal("transfer did not complete")
	}
	if u := receiver.CPU.Utilization(); u <= 0 || u >= 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestPublicAPIFeatureConstructors(t *testing.T) {
	if NonIOAT().DMACopy || !IOAT().DMACopy || !IOAT().SplitHeader {
		t.Fatal("feature constructors wrong")
	}
	if IOATDMAOnly().SplitHeader {
		t.Fatal("DMA-only must not enable split headers")
	}
	if !IOATFull().MultiQueue {
		t.Fatal("full feature set must enable multiple receive queues")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	if len(Experiments()) < 19 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
	res, ok := RunExperiment("fig6", ExperimentConfig{Seed: 1, Scale: 0.1})
	if !ok || res == nil || len(res.Series.Points) == 0 {
		t.Fatal("RunExperiment(fig6) failed")
	}
	if _, ok := RunExperiment("nope", ExperimentConfig{}); ok {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPublicAPIPVFS(t *testing.T) {
	cluster := NewCluster(DefaultParams(), 1)
	compute := cluster.Add("compute", IOAT(), 6)
	server := cluster.Add("server", IOAT(), 6)
	sys := NewPVFS(server, 3, 0)
	var n int
	app := cluster.S.NewTask("app")
	app.Start(func() {
		NewPVFSClient(app, compute, sys, func(c *PVFSClient) {
			c.Create("f", 2*MB, func(m PVFSFileMeta) {
				c.Read(m, 0, m.Size, compute.Buf(2*MB), func() { n = m.Size })
			})
		})
	})
	cluster.S.Run()
	if n != 2*MB {
		t.Fatalf("read %d", n)
	}
}

func TestPublicAPIDataCenter(t *testing.T) {
	prof := NewProfiler()
	m := RunDataCenter(DataCenterOptions{
		Feat: IOAT(), Seed: 1, ClientNodes: 2, ThreadsPerClient: 2,
		FileCount: 1, FileSize: 4 * KB,
		Host: []ClusterOption{WithStrictCheck(), WithObservability(Observability{Profile: prof})},
		Warm: 10 * time.Millisecond, Meas: 20 * time.Millisecond,
	})
	if m.Completed == 0 {
		t.Fatal("no transactions")
	}
	if prof.CPUTotal() == 0 {
		t.Fatal("the Host options did not reach the cluster: the profiler saw no CPU time")
	}
}

func TestPublicAPIIPC(t *testing.T) {
	cluster := NewCluster(DefaultParams(), 1)
	n := cluster.Add("n", IOAT(), 1)
	ch := NewIPCChannel(n, 16*KB, 4)
	var got int
	src, dst := n.Buf(16*KB), n.Buf(16*KB)
	producer, consumer := cluster.S.NewTask("p"), cluster.S.NewTask("c")
	producer.Start(func() { ch.Send(producer, src, 16*KB, func() {}) })
	consumer.Start(func() { ch.Recv(consumer, dst, func(n int) { got = n }) })
	cluster.S.Run()
	if got != 16*KB {
		t.Fatalf("got %d", got)
	}
}
