// Package ioatsim is a deterministic cluster simulator reproducing
// "Benefits of I/O Acceleration Technology (I/OAT) in Clusters"
// (Vaidyanathan & Panda, ISPASS 2007) in pure Go.
//
// The package re-exports the library's public surface. The package
// Example streams 16 MB over one port of Testbed 1 and reads back the
// receiver's CPU utilization.
//
// Layers, bottom up:
//
//   - the simulation kernel (Simulator, Task) — a deterministic
//     discrete-event loop whose processes are continuation-passing
//     tasks: a task's code runs inside events and suspends by asking for
//     a wake, so a simulation starts no goroutines;
//   - machines (Node, Cluster, Testbed1) — cores, an L2 cache model, a
//     DMA copy engine, multi-port NICs and a TCP-like transport driven by
//     Sender and Receiver tasks, with per-feature I/OAT acceleration
//     (Features);
//   - applications — the paper's two domains (RunDataCenter, RunPVFS)
//     plus the §5.1 dynamic-content third tier (RunThreeTier) and the
//     §7 intra-node IPC channel (IPCChannel);
//   - experiments (Experiments, RunExperiment) — every figure of the
//     paper's evaluation plus ablations, as runnable benchmarks.
package ioatsim

import (
	"ioatsim/internal/bench"
	"ioatsim/internal/cost"
	"ioatsim/internal/datacenter"
	"ioatsim/internal/fault"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/ipc"
	"ioatsim/internal/mem"
	"ioatsim/internal/metrics"
	"ioatsim/internal/pvfs"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
	"ioatsim/internal/trace"
)

// ---- simulation kernel ----

// Simulator is the deterministic discrete-event loop.
type Simulator = sim.Simulator

// Task is a simulation process: a continuation-passing state machine
// whose wakes are events. Create one with Simulator.NewTask and start it
// with Task.Start; operations that take time (a CPU charge, a transfer,
// a copy) take the task and a callback to run when they finish.
type Task = sim.Task

// Time is virtual time in nanoseconds since the start of the run.
type Time = sim.Time

// Completion is a one-shot synchronization point (e.g. a DMA transfer).
type Completion = sim.Completion

// NewSimulator returns an empty simulator. Most users want Testbed1 or
// NewCluster instead, which own one.
func NewSimulator() *Simulator { return sim.New() }

// ---- cost model ----

// Params is the calibrated cost model (see internal/cost for every
// constant's derivation).
type Params = cost.Params

// DefaultParams returns the Testbed-1 calibration: 4 cores, 2 MB L2,
// six 1-GbE ports, MTU 1500.
func DefaultParams() *Params { return cost.Default() }

// Byte-size units.
const (
	KB = cost.KB
	MB = cost.MB
	GB = cost.GB
)

// ---- I/OAT features ----

// Features selects which I/OAT capabilities a platform exposes.
type Features = ioat.Features

// NonIOAT returns the traditional configuration (no acceleration).
func NonIOAT() Features { return ioat.None() }

// IOAT returns the paper's kernel configuration: split headers + DMA
// copy engine, multiple receive queues off.
func IOAT() Features { return ioat.Linux() }

// IOATDMAOnly returns the copy engine without split headers (the
// "I/OAT-DMA" configuration of the paper's §4.5).
func IOATDMAOnly() Features { return ioat.DMAOnly() }

// IOATFull returns every feature including multiple receive queues.
func IOATFull() Features { return ioat.Full() }

// Copier is the user-level asynchronous memcpy service (paper §7/§8),
// available on every Node.
type Copier = ioat.Copier

// ---- machines ----

// Node is one simulated machine: cores, cache, engine, NIC, transport.
type Node = host.Node

// Cluster is a set of nodes sharing one simulator. Close it when the
// run is over: that lets the next cluster reuse its nodes' cache state.
type Cluster = host.Cluster

// Buffer is a user allocation in a node's simulated memory.
type Buffer = mem.Buffer

// ClusterOption configures a cluster under construction.
type ClusterOption = host.Option

// WithCheck installs the runtime invariant checker on the cluster: the
// run is audited for byte conservation, event causality and cache
// structure, and Cluster.Verify reports the verdict at the end.
func WithCheck() ClusterOption { return host.WithCheck() }

// WithStrictCheck is WithCheck upgraded to fail-fast: the first
// violated invariant panics at the virtual time it happens instead of
// at the end-of-run verdict.
func WithStrictCheck() ClusterOption { return host.WithStrictCheck() }

// ---- fault injection ----

// FaultPlan is a deterministic, seed-derived fault schedule: per-link
// Bernoulli or Gilbert-Elliott frame loss, a periodic drop mask, link
// flap windows, NIC rx-ring overflow and degraded (slowed) nodes. A
// non-nil plan also arms the transport's recovery machinery (RTO with
// exponential backoff, duplicate-ACK fast retransmit). The zero plan
// injects nothing and reproduces a lossless run byte-for-byte.
type FaultPlan = fault.Plan

// ParseFaultSpec parses a CLI-style plan spec such as
// "loss=0.001,flap=10ms/1ms,slow=2@0.5" (see internal/fault for the
// full key list).
func ParseFaultSpec(spec string) (FaultPlan, error) { return fault.ParseSpec(spec) }

// WithFault installs the plan on every node the cluster builds.
func WithFault(plan FaultPlan) ClusterOption { return host.WithFault(plan) }

// ---- observability ----

// Tracer records typed spans and instants from every device into a
// fixed ring and exports Chrome trace-event JSON (Tracer.WriteJSON).
type Tracer = trace.Tracer

// Profiler attributes simulated-CPU busy time to cost-model sites;
// Profiler.Report renders the sorted self-time table.
type Profiler = trace.Profiler

// MetricsRegistry samples time-series metrics (per-core utilization,
// link throughput, cache hit ratio, ...) on a simulated-time tick and
// exports CSV (WriteCSV) or JSON (WriteJSON).
type MetricsRegistry = metrics.Registry

// Observability bundles the optional sinks WithObservability installs.
type Observability = host.Observability

// NewTracer returns a tracer with a ring of n records (n <= 0 picks
// the default capacity).
func NewTracer(n int) *Tracer { return trace.New(n) }

// NewProfiler returns an empty simulated-CPU profiler.
func NewProfiler() *Profiler { return trace.NewProfiler() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *MetricsRegistry { return metrics.New() }

// WithObservability installs the bundle's sinks on the cluster. All
// sinks are optional; devices pay one nil compare per site for any
// sink left out, and installed observers never perturb results.
func WithObservability(o Observability) ClusterOption { return host.WithObservability(o) }

// NewCluster returns an empty cluster with a deterministic RNG.
func NewCluster(p *Params, seed uint64, opts ...ClusterOption) *Cluster {
	return host.NewCluster(p, seed, opts...)
}

// Testbed1 builds the paper's two-node, six-port micro-benchmark
// testbed with the given feature set on both nodes.
func Testbed1(p *Params, feat Features, seed uint64, opts ...ClusterOption) (*Cluster, *Node, *Node) {
	return host.Testbed1(p, feat, seed, opts...)
}

// ---- transport ----

// Conn is one endpoint of a reliable byte-stream connection.
type Conn = tcp.Conn

// Listener accepts inbound connections for a named service.
type Listener = tcp.Listener

// SendOptions modify one Send call (ZeroCopy selects the sendfile path).
type SendOptions = tcp.SendOptions

// Sender drives sends on one connection endpoint: Send calls its done
// callback once the last byte has been handed to the NIC.
type Sender = tcp.Sender

// Receiver drives receives on one connection endpoint: Recv calls its
// done callback once the requested bytes have arrived and been copied.
type Receiver = tcp.Receiver

// NewSender returns a reusable sender for c, driven by task t.
func NewSender(c *Conn, t *Task) *Sender { return tcp.NewSender(c, t) }

// NewReceiver returns a reusable receiver for c, driven by task t.
func NewReceiver(c *Conn, t *Task) *Receiver { return tcp.NewReceiver(c, t) }

// Pair establishes a connection between two nodes' stacks on the given
// port indexes without handshake costs.
func Pair(a, b *tcp.Stack, portA, portB int) (*Conn, *Conn) {
	return tcp.Pair(a, b, portA, portB)
}

// ---- applications ----

// DataCenterOptions configure the §5 two-tier data-center. Their Host
// field takes the same ClusterOptions as NewCluster (WithCheck,
// WithFault, WithObservability, ...).
type DataCenterOptions = datacenter.Options

// DataCenterMetrics report one data-center run.
type DataCenterMetrics = datacenter.Metrics

// ThreeTierOptions configure the dynamic-content extension.
type ThreeTierOptions = datacenter.ThreeTierOptions

// RunDataCenter runs clients -> proxy -> web and reports TPS and CPU.
func RunDataCenter(o DataCenterOptions) DataCenterMetrics {
	return datacenter.RunTwoTier(o)
}

// RunEmulatedClients runs the §5.2.3 emulated-clients setup.
func RunEmulatedClients(o DataCenterOptions, threads int) DataCenterMetrics {
	return datacenter.RunEmulated(o, threads)
}

// RunThreeTier runs the dynamic-content extension: proxy -> app -> db.
func RunThreeTier(o ThreeTierOptions) datacenter.ThreeTierMetrics {
	return datacenter.RunThreeTier(o)
}

// PVFSOptions configure the §6 parallel-file-system benchmark; Host
// takes ClusterOptions, as in DataCenterOptions.
type PVFSOptions = pvfs.Options

// PVFSMetrics report one PVFS run.
type PVFSMetrics = pvfs.Metrics

// PVFSSystem is a deployed manager + I/O daemons.
type PVFSSystem = pvfs.System

// PVFSClient is a compute node's client library instance.
type PVFSClient = pvfs.Client

// PVFSFileMeta describes a striped PVFS file.
type PVFSFileMeta = pvfs.FileMeta

// NewPVFS deploys iods I/O daemons on the server node.
func NewPVFS(server *Node, iods, stripe int) *PVFSSystem {
	return pvfs.New(server, iods, stripe)
}

// NewPVFSClient connects a compute node to a PVFS system on behalf of
// task t, and calls done with the client. The client's calls run on t.
func NewPVFSClient(t *Task, node *Node, sys *PVFSSystem, done func(*PVFSClient)) {
	pvfs.NewClient(t, node, sys, done)
}

// RunPVFS runs the pvfs-test concurrent read/write benchmark.
func RunPVFS(o PVFSOptions) PVFSMetrics { return pvfs.Run(o) }

// IPCChannel is the §7 intra-node shared-memory message channel whose
// copies can be offloaded to the engine.
type IPCChannel = ipc.Channel

// NewIPCChannel returns a channel with the given slot size and count.
func NewIPCChannel(n *Node, slotSize, slots int) *IPCChannel {
	return ipc.New(n, slotSize, slots)
}

// ---- experiments ----

// ExperimentConfig scales experiment runs (Scale 1 = paper-sized).
type ExperimentConfig = bench.Config

// ExperimentResult is one reproduced figure.
type ExperimentResult = bench.Result

// Experiment is a registered figure reproduction.
type Experiment = bench.Runner

// Experiments lists every reproducible figure in paper order.
func Experiments() []Experiment { return bench.Experiments() }

// RunExperiment runs one figure by id ("fig3a" .. "extipc").
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, bool) {
	r, ok := bench.Find(id)
	if !ok {
		return nil, false
	}
	return r.Run(cfg), true
}
