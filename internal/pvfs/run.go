package pvfs

import (
	"fmt"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
)

// Options configure a pvfs-test style run on Testbed 1: node 2 hosts the
// iods (one per GbE port), node 1 hosts the compute processes.
type Options struct {
	P    *cost.Params
	Feat ioat.Features
	Seed uint64

	IODs    int
	Clients int
	// Region overrides the per-client region size; 0 means the paper's
	// 2N megabytes for N iods.
	Region int
	Write  bool

	// Host configures the cluster the run builds: the invariant
	// checker, a fault plan, observability sinks (see host.Option).
	Host []host.Option

	Warm, Meas time.Duration
}

func (o *Options) defaults() {
	if o.P == nil {
		o.P = cost.Default()
	}
	if o.IODs == 0 {
		o.IODs = 6
	}
	if o.Clients == 0 {
		o.Clients = o.IODs
	}
	if o.Region == 0 {
		o.Region = 2 * o.IODs * cost.MB
	}
	if o.Warm == 0 {
		o.Warm = 60 * time.Millisecond
	}
	if o.Meas == 0 {
		o.Meas = 240 * time.Millisecond
	}
}

// Metrics is one measured pvfs-test configuration.
type Metrics struct {
	// MBps is aggregate client goodput in 10^6 bytes per second, the
	// unit the paper plots.
	MBps      float64
	ServerCPU float64
	ClientCPU float64
}

// Run executes the concurrent read or write benchmark of §6.2.
func Run(o Options) Metrics {
	o.defaults()
	cl := host.NewCluster(o.P, o.Seed, o.Host...)
	defer cl.Close()
	compute := cl.Add("compute", o.Feat, 6)
	server := cl.Add("server", o.Feat, 6)
	sys := New(server, o.IODs, 0)

	for i := 0; i < o.Clients; i++ {
		compute.CPU.RegisterThread()
		t := cl.S.NewTask(fmt.Sprintf("compute%d", i))
		t.Start(func() {
			NewClient(t, compute, sys, func(c *Client) {
				c.Create(fmt.Sprintf("data%d", i), o.Region, func(meta FileMeta) {
					buf := compute.Buf(o.Region)
					var loop func()
					loop = func() {
						if o.Write {
							c.Write(meta, 0, o.Region, buf, loop)
						} else {
							c.Read(meta, 0, o.Region, buf, loop)
						}
					}
					loop()
				})
			})
		})
	}

	// Goodput is measured at the data-receiving node's transport (the
	// compute node for reads, the server node for writes); the region
	// granularity of the client loop is too coarse for the window.
	recvSide := compute
	if o.Write {
		recvSide = server
	}
	cl.S.RunUntil(sim.Time(o.Warm))
	cl.ResetMeters()
	mark := recvSide.Stack.BytesReceived
	cl.S.RunUntil(sim.Time(o.Warm + o.Meas))

	m := Metrics{
		MBps:      float64(recvSide.Stack.BytesReceived-mark) / o.Meas.Seconds() / 1e6,
		ServerCPU: server.CPU.Utilization(),
		ClientCPU: compute.CPU.Utilization(),
	}
	cl.MustVerify()
	return m
}
