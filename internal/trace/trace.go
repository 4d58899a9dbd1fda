// Package trace is the simulator's observability layer: a typed event
// tracer and a simulated-CPU profiler that the device models drive
// through per-node hooks, as they drive the invariant checker
// (internal/check).
//
// The Tracer records spans (core run slices, link occupancy, DMA
// transfers) and instants (NIC arrivals, TCP segment/deliver events,
// cache-miss bursts, process wake-ups) into a preallocated ring of
// fixed-size records, and exports Chrome trace-event JSON that loads
// directly into chrome://tracing or Perfetto. Each simulated node is one
// trace "process" (pid); its cores and devices are threads (tids), so
// the receive-path story — interrupt, softirq slice, copy or DMA
// transfer, reader wake-up — reads core by core on a shared time axis.
//
// The Profiler attributes simulated busy time to cost-model sites
// (softirq protocol work, copy-in-cache vs copy-miss, DMA descriptor
// posts, context switches), giving every CPU-utilization figure a
// flat self-time breakdown.
//
// A host.Cluster bundles both per node with NewObs, hands the bundle to
// every device of the node, and installs the tracer as the simulator's
// sim.ProcProbe. Devices keep the *Obs pointer. When disabled, every
// instrumented site costs exactly one nil comparison, so the benchmark
// configurations stay on the allocation-free fast path and golden
// output is byte-identical.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"ioatsim/internal/sim"
)

// Site identifies an instrumented cost-model site. The first group is
// CPU-core work (every simulated busy nanosecond is tagged with one of
// them); the second is instant-only trace markers; the third is the
// memory-pricing detail the profiler reports as a breakdown within the
// CPU sites.
type Site uint8

const (
	// CPU-core sites: all work enqueued on a core carries one of these.
	SiteOther      Site = iota // untagged kernel work (syscalls, handshakes)
	SiteApp                    // application-level processing (Exec default)
	SiteSoftirq                // NIC interrupt + per-frame protocol work
	SiteTxSend                 // send syscall, user->kernel copy, segmentation
	SiteRecvCopy               // recv syscall + kernel->user CPU copy
	SiteCtxSwitch              // thread wake-up / context-switch cost
	SiteDMASubmit              // copy-engine descriptor post
	SitePin                    // page pinning for engine-addressable buffers
	SiteTxComplete             // transmit-completion interrupt work
	SiteAckProc                // ACK processing on the sender

	// Instant-only trace markers (never profiled).
	SiteNICRx      // chunk finished softirq-side placement
	SiteTCPSegment // transport handed one segment group to the fabric
	SiteTCPDeliver // transport queued one received chunk
	SiteDMAXfer    // engine transfer span (start..complete)
	SiteLinkChunk  // wire occupancy span of one chunk
	SiteMissBurst  // one priced operation missed many lines at once
	SiteProcRun    // process run slice (scheduler hand-off)
	SiteLinkDrop   // fault plane ate a chunk on the wire
	SiteNICDrop    // receive ring overflowed, chunk dropped at the NIC
	SiteTCPRetx    // transport retransmitted unacked segments
	SiteTCPRTO     // retransmission timer fired (arg: consecutive count)
	SiteTCPDiscard // receiver discarded an out-of-order or duplicate chunk

	// Memory-pricing detail (profiler only): how the copy/header work
	// inside the CPU sites splits between cache hits and DRAM.
	SiteCopyHit    // streaming copy lines served from cache
	SiteCopyMiss   // streaming copy lines from DRAM
	SiteHeaderHit  // header/connection-state lines served from cache
	SiteHeaderMiss // header/connection-state lines from DRAM
	SiteEvict      // direct-cache-placement pollution penalty

	numSites
)

var siteNames = [numSites]string{
	"other", "app", "softirq", "tx-send", "recv-copy", "ctx-switch",
	"dma-submit", "page-pin", "tx-complete", "ack-proc",
	"nic-rx", "tcp-segment", "tcp-deliver", "dma-xfer", "link-chunk",
	"miss-burst", "proc-run",
	"link-drop", "nic-drop", "tcp-retx", "tcp-rto", "tcp-discard",
	"copy-in-cache", "copy-miss", "header-in-cache", "header-miss",
	"dca-evict",
}

// String returns the site's stable report/trace name.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site%d", int(s))
}

// firstDetailSite splits the profiler's two report groups.
const firstDetailSite = SiteCopyHit

// Track (tid) layout within one node's pid. Cores occupy tids
// [1, TidNIC); device tracks follow.
const (
	TidNIC      = int32(40)
	TidDMA      = int32(41)
	TidMem      = int32(42)
	TidTCP      = int32(43)
	TidLinkBase = int32(48) // + port index
)

// TidCore returns the track id of core i.
func TidCore(i int) int32 { return int32(i) + 1 }

// trackName renders a tid as a human-readable thread name.
func trackName(pid, tid int32) string {
	if pid == 0 {
		return "procs"
	}
	switch {
	case tid >= 1 && tid < TidNIC:
		return fmt.Sprintf("core%d", tid-1)
	case tid == TidNIC:
		return "nic"
	case tid == TidDMA:
		return "dma"
	case tid == TidMem:
		return "mem"
	case tid == TidTCP:
		return "tcp"
	case tid >= TidLinkBase:
		return fmt.Sprintf("link%d", tid-TidLinkBase)
	}
	return fmt.Sprintf("t%d", tid)
}

// kind discriminates ring records.
type kind uint8

const (
	kindSpan kind = iota
	kindInstant
)

// record is one ring entry: a complete span or an instant, pinned to a
// (pid, tid) track. Str overrides the site name when non-empty (process
// run slices carry the process name).
type record struct {
	start sim.Time
	dur   time.Duration
	arg   int64
	str   string
	pid   int32
	tid   int32
	site  Site
	kind  kind
}

// DefaultCapacity is the ring size New(0) picks: large enough for tens
// of milliseconds of fully-loaded Testbed-1 traffic, small enough to
// preallocate instantly.
const DefaultCapacity = 1 << 19

// Tracer records typed observability events into a fixed-capacity ring.
// When the ring wraps, the oldest records are overwritten and counted as
// dropped — a trace always holds the most recent window.
//
// A Tracer implements sim.ProcProbe (task run instants), so it installs
// with sim.WithProcProbe. It is not safe for concurrent use from
// multiple simulators; trace one run at a time (the benchmark driver
// forces sequential mode when tracing).
type Tracer struct {
	recs    []record
	next    int
	full    bool
	dropped uint64

	nodes []string // pid-1 -> node name
}

// New returns a tracer with the given ring capacity in records
// (DefaultCapacity if n <= 0).
func New(n int) *Tracer {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Tracer{recs: make([]record, n)}
}

// RegisterNode assigns the next trace pid to a node. Pids start at 1;
// pid 0 is the simulator's own process track.
func (t *Tracer) RegisterNode(name string) int32 {
	t.nodes = append(t.nodes, name)
	return int32(len(t.nodes))
}

// ProcRun implements sim.ProcProbe: one instant per scheduler hand-off
// to a simulation process, on the shared pid-0 track.
func (t *Tracer) ProcRun(name string, at sim.Time) {
	t.rec(record{start: at, str: name, pid: 0, tid: 1, site: SiteProcRun, kind: kindInstant})
}

// Span records a completed or scheduled occupancy interval on a track.
func (t *Tracer) Span(pid, tid int32, site Site, start sim.Time, dur time.Duration, arg int64) {
	t.rec(record{start: start, dur: dur, arg: arg, pid: pid, tid: tid, site: site, kind: kindSpan})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(pid, tid int32, site Site, at sim.Time, arg int64) {
	t.rec(record{start: at, arg: arg, pid: pid, tid: tid, site: site, kind: kindInstant})
}

// rec appends one record, overwriting the oldest when the ring is full.
func (t *Tracer) rec(r record) {
	if t.full {
		t.dropped++
	}
	t.recs[t.next] = r
	t.next++
	if t.next == len(t.recs) {
		t.next = 0
		t.full = true
	}
}

// Len reports how many records the ring currently holds.
func (t *Tracer) Len() int {
	if t.full {
		return len(t.recs)
	}
	return t.next
}

// Dropped reports how many records were overwritten after the ring
// filled.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// ordered visits the ring's records oldest first.
func (t *Tracer) ordered(fn func(*record)) {
	if t.full {
		for i := t.next; i < len(t.recs); i++ {
			fn(&t.recs[i])
		}
	}
	for i := 0; i < t.next; i++ {
		fn(&t.recs[i])
	}
}

// WriteJSON exports the ring as Chrome trace-event JSON (the
// "JSON Array Format" with object wrapper), loadable by chrome://tracing
// and Perfetto. Timestamps are microseconds of virtual time; durations
// keep nanosecond precision as fractional microseconds.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"records\":%d,\"dropped\":%d},\"traceEvents\":[",
		t.Len(), t.dropped)
	first := true
	sep := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
	}

	// Process metadata: pid 0 is the simulator's process-scheduling
	// track; each registered node follows.
	meta := func(pid int32, name string) {
		sep()
		fmt.Fprintf(bw, `{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, pid, name)
	}
	meta(0, "sim")
	for i, name := range t.nodes {
		meta(int32(i+1), fmt.Sprintf("%s#%d", name, i+1))
	}

	// Thread metadata for every (pid, tid) track that actually recorded.
	type track struct{ pid, tid int32 }
	seen := map[track]bool{}
	t.ordered(func(r *record) { seen[track{r.pid, r.tid}] = true })
	tracks := make([]track, 0, len(seen))
	//ioatlint:allow simdeterminism — keys are collected then sorted below; the range order never escapes
	for tr := range seen {
		tracks = append(tracks, tr)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	for _, tr := range tracks {
		sep()
		fmt.Fprintf(bw, `{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`,
			tr.pid, tr.tid, trackName(tr.pid, tr.tid))
	}

	t.ordered(func(r *record) {
		name := r.str
		if name == "" {
			name = r.site.String()
		}
		ts := float64(r.start) / 1e3
		sep()
		switch r.kind {
		case kindSpan:
			fmt.Fprintf(bw, `{"ph":"X","name":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"v":%d}}`,
				name, r.pid, r.tid, ts, float64(r.dur)/1e3, r.arg)
		default:
			fmt.Fprintf(bw, `{"ph":"i","s":"t","name":%q,"pid":%d,"tid":%d,"ts":%.3f,"args":{"v":%d}}`,
				name, r.pid, r.tid, ts, r.arg)
		}
	})
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// Obs bundles the per-node observability sinks one device holds: the
// tracer, the profiler, the node's trace pid and the owning simulator's
// clock. Devices keep a single *Obs pointer, nil when observability is
// off, so every instrumented site costs one nil comparison when
// disabled.
type Obs struct {
	S   *sim.Simulator
	T   *Tracer
	P   *Profiler
	Pid int32
}

// NewObs bundles a node's sinks, either of which may be nil, and
// registers the node with the tracer. It returns nil when both are nil,
// which is the signal devices use to skip instrumentation entirely.
func NewObs(s *sim.Simulator, t *Tracer, p *Profiler, node string) *Obs {
	if t == nil && p == nil {
		return nil
	}
	o := &Obs{S: s, T: t, P: p}
	if t != nil {
		o.Pid = t.RegisterNode(node)
	}
	return o
}

// Span records a tracer span on one of this node's tracks (no-op
// without a tracer).
func (o *Obs) Span(tid int32, site Site, start sim.Time, dur time.Duration, arg int64) {
	if o.T != nil {
		o.T.Span(o.Pid, tid, site, start, dur, arg)
	}
}

// Instant records a tracer instant at the current virtual time.
func (o *Obs) Instant(tid int32, site Site, arg int64) {
	if o.T != nil {
		o.T.Instant(o.Pid, tid, site, o.S.Now(), arg)
	}
}

// Cost attributes d of simulated time to a profiler site (no-op without
// a profiler).
func (o *Obs) Cost(site Site, d time.Duration) {
	if o.P != nil {
		o.P.Add(site, d)
	}
}
