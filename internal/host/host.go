// Package host assembles complete simulated machines — cores, cache,
// memory, DMA engine, NIC and transport stack — and builds the paper's
// testbeds:
//
//   - Testbed 1: two SuperMicro X7DB8+ nodes (dual-core dual Xeon
//     3.46 GHz, 2 MB L2) with six 1-GbE ports each, one VLAN per port
//     pair (paper §4);
//   - Testbed 2: a cluster of client nodes used purely as request
//     generators (paper §4, §5).
package host

import (
	"fmt"
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/cpu"
	"ioatsim/internal/dma"
	"ioatsim/internal/fault"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/metrics"
	"ioatsim/internal/nic"
	"ioatsim/internal/rng"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
	"ioatsim/internal/trace"
)

// Node is one complete machine.
type Node struct {
	Name   string
	S      *sim.Simulator
	P      *cost.Params
	Feat   ioat.Features
	CPU    *cpu.CPU
	Mem    *mem.Model
	DMA    *dma.Engine
	NIC    *nic.NIC
	Stack  *tcp.Stack
	Copier *ioat.Copier
}

// Buf allocates a user buffer in the node's address space.
func (n *Node) Buf(size int) mem.Buffer { return n.Mem.Space.Alloc(size, 0) }

// ResetMeters starts fresh CPU and DMA utilization windows, discarding
// warm-up activity.
func (n *Node) ResetMeters() {
	n.CPU.ResetWindow()
	n.DMA.ResetWindow()
}

// Cluster is a set of nodes sharing one simulator and parameter set.
type Cluster struct {
	S      *sim.Simulator
	P      *cost.Params
	Rand   *rng.Rand
	Nodes  []*Node
	byName map[string]*Node

	// Check is the invariant checker installed by WithCheck, nil otherwise.
	Check *check.Checker

	// Fault is the fault-plan injector installed by WithFault, nil for
	// the lossless fabric. Every node added to the cluster gets its
	// hooks (link drops, NIC ring bound, CPU slowdown) and arms the
	// transport's loss recovery.
	Fault *fault.Injector

	// Obs holds the observability sinks installed by WithObservability.
	Obs Observability

	// scope is this cluster's metrics instrument scope, nil without a
	// registry and once Close has reported the event totals.
	scope *metrics.Scope
}

// Observability bundles the optional observability sinks a cluster can
// be built with. Any subset may be set; all-nil means fully disabled
// (the zero value).
type Observability struct {
	// Trace records typed spans/instants for Chrome trace-event export.
	Trace *trace.Tracer
	// Profile attributes simulated CPU time to cost-model sites.
	Profile *trace.Profiler
	// Metrics collects sampled time-series rows.
	Metrics *metrics.Registry
	// MetricsInterval is the sampling tick (metrics.DefaultInterval when
	// zero).
	MetricsInterval time.Duration
}

// Enabled reports whether any sink is installed.
func (o Observability) Enabled() bool {
	return o.Trace != nil || o.Profile != nil || o.Metrics != nil
}

// Option configures a Cluster under construction.
type Option func(*Cluster)

// WithCheck installs a runtime invariant checker on the cluster's
// simulator and hands it to every device the cluster builds; Verify
// reports the verdict at the end of the run.
func WithCheck() Option {
	return func(c *Cluster) { c.Check = check.New() }
}

// WithStrictCheck is WithCheck with fail-fast semantics: the first
// violated invariant panics at the exact virtual time it happens instead
// of being collected for the end-of-run verdict.
func WithStrictCheck() Option {
	return func(c *Cluster) {
		c.Check = check.New()
		c.Check.Strict = true
	}
}

// WithFault installs a fault plan: every node subsequently added gets
// per-link loss/flap state, a bounded NIC receive ring, a CPU slowdown
// factor (all as the plan directs — the zero plan is benign), and a
// transport armed for retransmission. Composes with WithCheck, whose
// conservation ledgers then audit the drop/retransmit flow end-to-end.
func WithFault(plan fault.Plan) Option {
	return func(c *Cluster) { c.Fault = fault.NewInjector(plan) }
}

// WithObservability hands the given observability sinks to every node
// the cluster builds (composing with WithCheck).
// Sinks may be shared across sequentially-built clusters of one sweep;
// the tracer and registry are not safe for concurrently-running
// simulators.
func WithObservability(o Observability) Option {
	return func(c *Cluster) { c.Obs = o }
}

// NewCluster returns an empty cluster with a deterministic RNG. The
// parameter set is validated up front so a bad sweep point fails here,
// naming the offending field, instead of misbehaving inside a device
// model.
func NewCluster(p *cost.Params, seed uint64, opts ...Option) *Cluster {
	if err := p.Validate(); err != nil {
		panic("host: " + err.Error())
	}
	c := &Cluster{
		P: p, Rand: rng.New(seed),
		byName: make(map[string]*Node),
	}
	for _, o := range opts {
		o(c)
	}
	var simOpts []sim.Option
	if c.Check != nil {
		simOpts = append(simOpts, sim.WithProbe(c.Check))
	}
	if c.Obs.Trace != nil {
		simOpts = append(simOpts, sim.WithProcProbe(c.Obs.Trace))
	}
	if c.Fault != nil {
		if r := c.Fault.Plan().RxRingFrames; r > 0 && r < p.Frames(p.ChunkMax) {
			// A ring that cannot hold one full-size chunk would reject
			// it on every (re)transmission — an unrecoverable livelock,
			// not a fault model.
			panic(fmt.Sprintf("host: RxRingFrames %d below one %d-byte chunk (%d frames)",
				r, p.ChunkMax, p.Frames(p.ChunkMax)))
		}
	}
	c.S = sim.New(simOpts...)
	if c.Obs.Metrics != nil {
		c.scope = c.Obs.Metrics.NewScope()
		c.scope.StartSampler(c.S, c.Obs.MetricsInterval)
		registerSchedMetrics(c.scope, c.S)
	}
	return c
}

// registerSchedMetrics wires the event scheduler's pending-set depth,
// current and high-water: how many events a workload keeps in flight,
// which is what sizes the scheduler's heap.
func registerSchedMetrics(sc *metrics.Scope, s *sim.Simulator) {
	sc.GaugeFunc("sched/pending", func() float64 {
		return float64(s.Pending())
	})
	sc.GaugeFunc("sched/peak_pending", func() float64 {
		return float64(s.PeakPending())
	})
}

// Verify finalizes the invariant checker (running its end-of-run audits)
// and returns the first violation, or nil if the run was clean or
// unchecked.
func (c *Cluster) Verify() error {
	if c.Check == nil {
		return nil
	}
	c.Check.Finish()
	return c.Check.Err()
}

// MustVerify panics on the first recorded invariant violation. Harness
// code calls it after a checked run so violations fail loudly.
func (c *Cluster) MustVerify() {
	if err := c.Verify(); err != nil {
		panic("host: invariant violation: " + err.Error())
	}
}

// Close ends a finished simulation: it closes the simulator, so no
// pending event runs afterwards (sim.Simulator.Close), hands each node's
// cache state back for the next cluster to reuse (mem.Cache.Release),
// and adds the simulator's event totals to the metrics registry. The
// engine cancels no event, so every event scheduled was dispatched or
// is still pending. Every harness that builds a cluster defers it right
// after building, so it runs after MustVerify, whose final cache audit
// needs the live state. The cluster can no longer run afterwards;
// closing twice does nothing.
func (c *Cluster) Close() {
	c.S.Close()
	for _, n := range c.Nodes {
		n.Mem.Cache.Release()
	}
	if c.scope != nil {
		ran := c.S.Executed()
		c.Obs.Metrics.AddEvents(ran+uint64(c.S.Pending()), ran)
		c.scope = nil
	}
}

// newNode builds a machine with nports NIC ports and hands each of its
// devices the cluster's checker and the node's observability sinks.
func (c *Cluster) newNode(feat ioat.Features, name string, nports int) *Node {
	s, p := c.S, c.P
	m := mem.NewModel(p)
	m.SetChecker(c.Check)
	cp := cpu.New(s, p)
	e := dma.New(s, p, m)
	n := nic.New(s, p, cp, m, e, feat, name, nports)
	st := tcp.NewStack(s, p, cp, m, e, n, feat, name)
	cp.SetChecker(c.Check)
	e.SetChecker(c.Check)
	n.SetChecker(c.Check) // also wires the ports
	st.SetChecker(c.Check)
	if o := trace.NewObs(s, c.Obs.Trace, c.Obs.Profile, name); o != nil {
		cp.SetObs(o)
		m.SetObs(o)
		e.SetObs(o)
		n.SetObs(o) // also wires the ports
		st.SetObs(o)
	}
	return &Node{
		Name: name, S: s, P: p, Feat: feat,
		CPU: cp, Mem: m, DMA: e, NIC: n, Stack: st,
		Copier: ioat.NewCopier(cp, e, m),
	}
}

// Add builds and registers a node.
func (c *Cluster) Add(name string, feat ioat.Features, nports int) *Node {
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("host: duplicate node %q", name))
	}
	n := c.newNode(feat, name, nports)
	if c.Fault != nil {
		n.CPU.SetFault(c.Fault.Node(name))
		n.NIC.Fault = c.Fault.NIC(name)
		for i, pt := range n.NIC.Ports {
			pt.Fault = c.Fault.Link(name, i)
		}
		n.Stack.EnableRecovery(c.Fault.Plan())
	}
	c.Nodes = append(c.Nodes, n)
	c.byName[name] = n
	if c.scope != nil {
		registerNodeMetrics(c.scope, n)
	}
	return n
}

// registerNodeMetrics wires the per-node time series the paper's
// resource stories are told in: per-core utilization and run-queue
// depth, link and transport throughput, DMA-engine occupancy, cache hit
// ratio and interrupt rate. Cumulative device counters become rates (or
// windowed ratios) at each sampler tick, so every series is directly
// plottable against virtual time.
func registerNodeMetrics(sc *metrics.Scope, n *Node) {
	pre := n.Name + "/"
	for i := 0; i < n.CPU.NumCores(); i++ {
		i := i
		// Busy seconds are cumulative, so the sampled rate is the core's
		// busy fraction (utilization in [0, 1]) over each tick window.
		sc.CounterFunc(pre+fmt.Sprintf("cpu%d/util", i), func() float64 {
			return n.CPU.CoreBusyTotal(i).Seconds()
		})
		sc.GaugeFunc(pre+fmt.Sprintf("cpu%d/runq_us", i), func() float64 {
			return float64(n.CPU.Backlog(i)) / 1e3
		})
	}
	sc.CounterFunc(pre+"net/rx_mbps", func() float64 {
		var b int64
		for _, p := range n.NIC.Ports {
			b += p.RxWireBytes
		}
		return float64(b) * 8 / 1e6
	})
	sc.CounterFunc(pre+"net/tx_mbps", func() float64 {
		var b int64
		for _, p := range n.NIC.Ports {
			b += p.TxWireBytes
		}
		return float64(b) * 8 / 1e6
	})
	sc.GaugeFunc(pre+"dma/queue_us", func() float64 {
		return float64(n.DMA.QueueDelay()) / 1e3
	})
	sc.CounterFunc(pre+"dma/copy_mbps", func() float64 {
		return float64(n.DMA.BytesMoved) * 8 / 1e6
	})
	sc.CounterFunc(pre+"nic/interrupts", func() float64 {
		return float64(n.NIC.Interrupts)
	})
	sc.RatioFunc(pre+"cache/hit_ratio",
		func() float64 { return float64(n.Mem.Cache.Hits) },
		func() float64 { return float64(n.Mem.Cache.Hits + n.Mem.Cache.Misses) })
	sc.CounterFunc(pre+"tcp/rx_mbps", func() float64 {
		return float64(n.Stack.BytesReceived) * 8 / 1e6
	})
	n.Stack.SetMetrics(
		sc.TimeWeighted(pre+"tcp/rx_backlog_bytes"),
		sc.HistogramInstrument(pre+"tcp/seg_bytes",
			1024, 4096, 9216, 16384, 32768, 65536))
	if n.NIC.Fault != nil {
		// Fault-plane series, present only under a fault plan (the NIC
		// hook is installed exactly when the rest are).
		sc.CounterFunc(pre+"fault/link_drop_bytes", func() float64 {
			var b int64
			for _, p := range n.NIC.Ports {
				if p.Fault != nil {
					b += p.Fault.DroppedBytes
				}
			}
			return float64(b)
		})
		sc.CounterFunc(pre+"fault/nic_drop_bytes", func() float64 {
			//ioatlint:allow probeguard — this CounterFunc is only registered under a fault plan, which installs NIC.Fault before any sampling tick
			return float64(n.NIC.Fault.DroppedBytes)
		})
		sc.CounterFunc(pre+"fault/retx_bytes", func() float64 {
			return float64(n.Stack.RetransmitBytes)
		})
		sc.CounterFunc(pre+"fault/rto", func() float64 {
			return float64(n.Stack.Timeouts)
		})
		sc.CounterFunc(pre+"fault/fast_retx", func() float64 {
			return float64(n.Stack.FastRetransmits)
		})
		sc.CounterFunc(pre+"fault/rx_discard_bytes", func() float64 {
			return float64(n.Stack.RxDiscardBytes)
		})
	}
}

// ResetMeters resets every node's measurement windows.
func (c *Cluster) ResetMeters() {
	for _, n := range c.Nodes {
		n.ResetMeters()
	}
}

// Testbed1 builds the paper's two-node micro-benchmark testbed: both
// nodes run the same feature set and have six 1-GbE ports connected
// port-to-port (the paper's per-port VLANs).
func Testbed1(p *cost.Params, feat ioat.Features, seed uint64, opts ...Option) (*Cluster, *Node, *Node) {
	c := NewCluster(p, seed, opts...)
	a := c.Add("node1", feat, 6)
	b := c.Add("node2", feat, 6)
	return c, a, b
}

// AddClients adds n single-port client nodes (Testbed 2's request
// generators). Clients are conventional (non-I/OAT) machines unless feat
// says otherwise.
func (c *Cluster) AddClients(n int, feat ioat.Features) []*Node {
	clients := make([]*Node, n)
	for i := range clients {
		clients[i] = c.Add(fmt.Sprintf("client%d", i), feat, 1)
	}
	return clients
}
