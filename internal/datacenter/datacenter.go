// Package datacenter implements the paper's §5 two-tier data-center: an
// Apache-like proxy tier in front of a static web tier, driven by
// closed-loop clients replaying single-file or Zipf traces. Worker
// threads (one per connection, the Apache worker model) pay fixed
// per-request costs plus accesses to a shared application working set
// priced through the cache — which is how receive-path cache pollution
// converts into lost transactions.
package datacenter

import (
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/ramfs"
	"ioatsim/internal/rng"
)

// Application-level cost constants (Apache 2.0 on the paper's Xeons).
const (
	// ProxyFixedWork is the per-request CPU the proxy spends on
	// parsing, header rewriting, routing and logging (Apache 2.0 proxy
	// magnitudes).
	ProxyFixedWork = 70 * time.Microsecond
	// WebFixedWork is the per-request CPU of the static web server.
	WebFixedWork = 40 * time.Microsecond
	// AppStateBytes is a server's shared working set (code, config,
	// vhost tables, regex caches) — resident when the cache is quiet,
	// evicted by receive-path pollution.
	AppStateBytes = 1536 * cost.KB
	// AppStateLines is how many working-set lines one request touches;
	// requests touch different parts of the state, so the touches are
	// drawn at random.
	AppStateLines = 1024
)

// Tier is one server role instance on a node.
type Tier struct {
	Node     *host.Node
	FS       *ramfs.FS // content store (web tier)
	appState mem.Buffer
	rand     *rng.Rand
}

// newTier builds a tier on the node, allocating its working set.
func newTier(n *host.Node, r *rng.Rand) *Tier {
	return &Tier{
		Node:     n,
		FS:       ramfs.New(n.Mem),
		appState: n.Mem.Space.Alloc(AppStateBytes, 0),
		rand:     r,
	}
}

// appChunk is how many working-set touches appWork draws before it
// prices them in one RandomEachCost call. Chunks of 16 and 64 measured
// fastest, 256 and 1,024 slower, and the chunk lives on the stack of
// every task that prices a request.
const appChunk = 64

// appWork prices one request's application work: the fixed cost plus
// working-set touches through the node's cache. When receive-path
// traffic has evicted the working set, these touches miss and the
// request slows down — the coupling the paper's §5 results rest on.
// The touches are drawn a chunk at a time and each chunk is priced in
// one pass; the cache draws nothing from the tier's generator, so the
// draws and the touches keep the order of one call per line. A line
// larger than the working set leaves one line to draw from.
func (t *Tier) appWork(fixed time.Duration) time.Duration {
	line := t.Node.P.CacheLine
	lines := max(t.appState.Size/line, 1)
	var chunk [appChunk]mem.Addr
	d := fixed
	for i := 0; i < AppStateLines; i += len(chunk) {
		batch := chunk[:min(len(chunk), AppStateLines-i)]
		for j := range batch {
			batch[j] = t.appState.Addr + mem.Addr(t.rand.Intn(lines)*line)
		}
		d += t.Node.Mem.RandomEachCost(batch)
	}
	return d
}

// Metrics is one measured configuration.
type Metrics struct {
	TPS       float64
	Completed int64
	ProxyCPU  float64
	WebCPU    float64
	ClientCPU float64
}

// Options configure a data-center run.
type Options struct {
	P    *cost.Params
	Feat ioat.Features
	Seed uint64

	// Clients: ClientNodes machines running ThreadsPerClient closed-loop
	// request threads each.
	ClientNodes      int
	ThreadsPerClient int

	// Content: FileCount files of FileSize bytes; Alpha > 0 replays a
	// Zipf trace over them, otherwise every thread requests file 0.
	// SpreadMin/SpreadMax, when set, draw file sizes uniformly from
	// [SpreadMin, SpreadMax] instead of the fixed FileSize.
	FileCount int
	FileSize  int
	SpreadMin int
	SpreadMax int
	Alpha     float64

	// CacheBytes enables the proxy content cache when positive.
	CacheBytes int

	// Host configures the cluster the run builds: the invariant
	// checker, a fault plan, observability sinks (see host.Option).
	Host []host.Option

	Warm, Meas time.Duration
}

func (o *Options) defaults() {
	if o.P == nil {
		o.P = cost.Default()
	}
	if o.ClientNodes == 0 {
		o.ClientNodes = 16
	}
	if o.ThreadsPerClient == 0 {
		o.ThreadsPerClient = 4
	}
	if o.FileCount == 0 {
		o.FileCount = 1
	}
	if o.FileSize == 0 {
		o.FileSize = 4 * cost.KB
	}
	if o.Warm == 0 {
		o.Warm = 60 * time.Millisecond
	}
	if o.Meas == 0 {
		o.Meas = 240 * time.Millisecond
	}
}
