// Package bench implements one experiment per table/figure of the
// paper's evaluation (§4 micro-benchmarks, §5 data-center, §6 PVFS),
// plus the ablation studies DESIGN.md lists. Each experiment returns a
// Result whose Series renders as a text table mirroring the figure.
package bench

import (
	"context"
	"fmt"
	"slices"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
	"ioatsim/internal/stats"
	"ioatsim/internal/sweep"
	"ioatsim/internal/tcp"
)

// Config scales the experiments. Scale < 1 shortens runs and request
// counts proportionally (used by `go test` so the full suite stays
// fast); Scale = 1 reproduces the paper-sized runs.
//
// Parallel bounds how many of an experiment's points run concurrently:
// 1 is strictly sequential, 0 (or negative) means one worker per
// GOMAXPROCS core. Every point is an independent simulation, so the
// rendered tables are byte-identical at any setting.
type Config struct {
	Seed     uint64
	Scale    float64
	Parallel int

	// Check runs every simulation under the runtime invariant checker
	// (byte conservation, event causality, utilization bounds) and panics
	// on any violation. Tests set it; benchmarks leave it off so the hot
	// paths stay probe-free.
	Check bool

	// Strict upgrades Check to fail-fast: the first violated invariant
	// panics at the virtual time it happens instead of at the end-of-run
	// verdict. Implies Check.
	Strict bool

	// Fault, when non-nil, runs every simulation under the given fault
	// plan (internal/fault): link loss and flaps, NIC ring overflow,
	// degraded nodes, and the transport's retransmission machinery. The
	// plan participates in the point-cache key; a nil plan is the
	// lossless fabric every figure of the paper assumes. Runners that
	// sweep their own fault parameters (the loss-sweep figure) override
	// it per point.
	Fault *fault.Plan

	// Obs attaches observability sinks (tracer, profiler, metrics
	// registry) to every cluster the experiment builds. The tracer and
	// registry are not goroutine-safe across concurrently-running
	// simulations, so callers that set them should also set Parallel to 1;
	// the profiler alone is safe at any parallelism.
	Obs host.Observability

	// Cache, when non-nil, memoizes each sweep point's result under its
	// content-addressed key (Config.key: runner, point index, Seed,
	// Scale, Fault and Costs), so repeated runs at an identical
	// configuration skip the simulation. Tables are byte-identical with
	// or without it — the golden tests pin that.
	Cache *sweep.PointCache

	// Ctx, when non-nil, bounds the experiment's lifetime: once it is
	// cancelled no further sweep point starts, the points in flight run
	// to completion, and Runner.RunContext returns the context's error.
	// Like Parallel it changes how a run executes, never what a finished
	// run's tables say, so it stays out of the point-cache key. A nil
	// Ctx means context.Background().
	Ctx context.Context

	// Costs overrides individual cost-model parameters by cost.Params
	// field name, applied to the base parameter set every experiment
	// starts from (figure-specific adjustments, e.g. Fig 5's socket
	// cases, are applied on top and win on conflict). Overridden costs
	// change the tables, so Costs joins the point-cache key.
	Costs []CostOverride
}

// CostOverride renames one cost.Params field to a new value. Value is
// interpreted per field kind: integers and byte counts are rounded,
// time.Duration fields read Value as nanoseconds, bools as Value != 0.
type CostOverride struct {
	Field string  `json:"field"`
	Value float64 `json:"value"`
}

// params returns the experiment's base parameter set: cost.Default()
// with the config's overrides applied. It panics on an unknown or
// non-numeric field — Request validation rejects bad overrides at the
// API boundary, so reaching here with one is a programming error.
func (c Config) params() *cost.Params {
	p := cost.Default()
	if err := ApplyCostOverrides(p, c.Costs); err != nil {
		panic(fmt.Sprintf("bench: invalid cost override: %v", err))
	}
	return p
}

// context resolves the config's context.
func (c Config) context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// hostOpts translates the config into cluster-construction options.
func (c Config) hostOpts() []host.Option {
	var opts []host.Option
	switch {
	case c.Strict:
		opts = append(opts, host.WithStrictCheck())
	case c.Check:
		opts = append(opts, host.WithCheck())
	}
	if c.Fault != nil {
		opts = append(opts, host.WithFault(*c.Fault))
	}
	if c.Obs.Enabled() {
		opts = append(opts, host.WithObservability(c.Obs))
	}
	return opts
}

// duration scales a nominal measurement window.
func (c Config) duration(d time.Duration) time.Duration {
	if c.Scale <= 0 || c.Scale == 1 {
		return d
	}
	scaled := time.Duration(float64(d) * c.Scale)
	if scaled < time.Millisecond {
		scaled = time.Millisecond
	}
	return scaled
}

// Result is one reproduced figure.
type Result struct {
	ID     string
	Title  string
	Series *stats.Series
	Notes  []string
}

// String renders the result as a table plus notes.
func (r *Result) String() string {
	out := r.Series.Table()
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// ResultJSON is one finished experiment in wire form: what ioatd
// streams and ioatbench -json prints. Table is the rendered text table
// plus notes, byte-identical to Result.String (the golden parity tests
// pin it).
type ResultJSON struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	XLabel  string    `json:"xlabel"`
	Columns []string  `json:"columns"`
	Rows    []RowJSON `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
	Table   string    `json:"table"`
	WallMS  float64   `json:"wall_ms"`
}

// RowJSON is one table row: x value, optional label, and the column
// values in column order.
type RowJSON struct {
	X      float64   `json:"x"`
	Label  string    `json:"label,omitempty"`
	Values []float64 `json:"values"`
}

// JSON returns the result in wire form; wall is the host time its run
// took.
func (r *Result) JSON(wall time.Duration) ResultJSON {
	s := r.Series
	out := ResultJSON{
		ID:      r.ID,
		Title:   r.Title,
		XLabel:  s.XLabel,
		Columns: s.Columns,
		Notes:   r.Notes,
		Table:   r.String(),
		WallMS:  float64(wall.Microseconds()) / 1e3,
	}
	for _, p := range s.Points {
		row := RowJSON{X: p.X, Label: p.Label}
		for _, c := range s.Columns {
			row.Values = append(row.Values, p.Values[c])
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Runner is a registered experiment. Desc is the one-line description
// the CLI's -list and the daemon's GET /v1/runners both render — one
// shared table, one source of truth.
type Runner struct {
	ID    string
	Title string
	Desc  string
	Run   func(Config) *Result
}

// Experiments lists every reproducible figure in paper order. The
// slice is the caller's own copy.
func Experiments() []Runner { return slices.Clone(experiments) }

// experiments is the runner table, built once: a job reaches it several
// times (Request.Validate, Request.Config, Find).
var experiments = []Runner{
	{"fig3a", "Bandwidth vs. ports", "unidirectional ttcp over 1..6 GbE ports, 64K messages; receiver CPU with and without I/OAT", Fig3a},
	{"fig3b", "Bi-directional bandwidth vs. ports", "N streams each way over 1..6 ports; one node's CPU utilization", Fig3b},
	{"fig4", "Multi-stream bandwidth vs. threads", "1..12 receiver threads round-robined over six ports, 16K messages", Fig4},
	{"fig5a", "Sender-side optimizations: bandwidth", "cumulative socket-buffer/TSO/jumbo/coalescing cases, unidirectional", Fig5a},
	{"fig5b", "Sender-side optimizations: bi-directional", "the same cases bi-directionally; Case 4 is the paper's 38% headline", Fig5b},
	{"fig6", "CPU-based copy vs. DMA-based copy", "1K..64K copies: cached/uncached memcpy vs engine total, overhead and overlap", Fig6},
	{"fig7a", "I/OAT split-up: CPU benefit (16K-128K)", "non-I/OAT vs DMA-only vs DMA+split-header at medium messages", Fig7a},
	{"fig7b", "I/OAT split-up: throughput (1M-8M)", "the same split at cache-exceeding messages, where split headers pay", Fig7b},
	{"fig8a", "Data-center TPS: single-file traces", "proxy+web two-tier TPS for 2K..10K single-file traces", Fig8a},
	{"fig8b", "Data-center TPS: Zipf traces", "two-tier TPS under Zipf document popularity, alpha 0.95..0.5", Fig8b},
	{"fig9", "Data-center TPS vs. emulated clients", "1..256 client threads against the web tier; the 4x concurrency result", Fig9},
	{"fig10a", "PVFS concurrent read, 6 I/O servers", "parallel-FS read bandwidth and client CPU, 1..6 clients", Fig10a},
	{"fig10b", "PVFS concurrent read, 5 I/O servers", "the same sweep with five I/O servers", Fig10b},
	{"fig11a", "PVFS concurrent write, 6 I/O servers", "parallel-FS write bandwidth and server CPU, 1..6 clients", Fig11a},
	{"fig11b", "PVFS concurrent write, 5 I/O servers", "the same sweep with five I/O servers", Fig11b},
	{"fig12", "PVFS multi-stream read", "1..64 emulated clients on one compute node reading 2M regions", Fig12},
	{"ablrss", "Ablation: multiple receive queues", "MTU 576 interrupt saturation vs RSS spreading flows across cores", AblRSS},
	{"ablpin", "Ablation: page-pinning cost vs. DMA benefit", "sweeps per-page pin cost until the engine stops paying off (paper §7)", AblPin},
	{"ablcoal", "Ablation: interrupt coalescing budget", "frames-per-interrupt budget under light and heavy load (paper §2.1)", AblCoal},
	{"ext3tier", "Extension: 3-tier dynamic-content data-center", "proxy→app→database tiers swept over DB queries per request", Ext3Tier},
	{"extipc", "Extension: intra-node IPC via the copy engine", "shared-memory channel, CPU copies vs engine copies (paper §7)", ExtIPC},
	{"fault_loss", "Extension: goodput and CPU vs. loss rate", "the fig3a layout under 0..2% Bernoulli frame loss with go-back-N recovery", FaultLoss},
}

// canceled carries a context error out of a cancelled sweep; points
// panics with it and RunContext converts it back into an error. Using a
// private type keeps genuine point panics distinguishable.
type canceled struct{ err error }

// RunContext runs the experiment under cfg and converts a mid-sweep
// context cancellation into an error instead of a panic. Every other
// panic propagates unchanged. Callers that never set Config.Ctx can
// keep calling Run directly.
func (r Runner) RunContext(cfg Config) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if c, ok := rec.(canceled); ok {
				err = c.err
				return
			}
			panic(rec)
		}
	}()
	return r.Run(cfg), nil
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range experiments {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// ---- shared traffic machinery for the micro-benchmarks ----

// stream is one unidirectional ttcp-style flow.
type stream struct {
	from, to         *host.Node
	portFrom, portTo int
	msg              int
	opts             tcp.SendOptions
}

// launch starts the stream's sender and receiver loops as event-driven
// continuations (zero goroutine handoffs in steady state); they run
// until the simulation stops. The loops still register as threads —
// they model the same ttcp threads as before; only the host-side
// scheduling cost is gone.
func (sp stream) launch() {
	s := sp.from.S
	ca, cb := tcp.Pair(sp.from.Stack, sp.to.Stack, sp.portFrom, sp.portTo)
	src := sp.from.Buf(min(sp.msg, 256*cost.KB))
	dst := sp.to.Buf(min(sp.msg, 256*cost.KB))
	sp.from.CPU.RegisterThread()
	tx := tcp.NewSender(ca, s.NewTask(fmt.Sprintf("tx-%s-%d", sp.from.Name, sp.portFrom)))
	var txLoop func()
	txLoop = func() { tx.SendOpts(src, sp.msg, sp.opts, txLoop) }
	tx.Task().Start(txLoop)
	sp.to.CPU.RegisterThread()
	rx := tcp.NewReceiver(cb, s.NewTask(fmt.Sprintf("rx-%s-%d", sp.to.Name, sp.portTo)))
	var rxLoop func()
	rxLoop = func() { rx.Recv(dst, sp.msg, rxLoop) }
	rx.Task().Start(rxLoop)
}

// microResult captures one measured configuration. The fields are
// exported (as in every sweep-row type) so the point cache can gob-
// encode them.
type microResult struct {
	Mbps    float64 // goodput delivered during the window
	CPURecv float64 // receiver-node utilization (0..1)
	CPUSend float64 // sender-node utilization (0..1)
}

// runMicro builds Testbed 1 with the given features and parameters,
// launches the streams, and measures goodput at the stream receivers and
// CPU on both nodes over the measurement window.
func runMicro(p *cost.Params, feat ioat.Features, cfg Config,
	build func(a, b *host.Node) []stream) microResult {
	return runMicroWith(p, feat, cfg, build, nil)
}

// runMicroWith is runMicro with a hook that runs at the end of the
// measurement window, before the cluster is discarded — for collecting
// extra metrics such as per-core utilization.
func runMicroWith(p *cost.Params, feat ioat.Features, cfg Config,
	build func(a, b *host.Node) []stream, post func(a, b *host.Node)) microResult {
	cl, a, b := host.Testbed1(p, feat, cfg.Seed, cfg.hostOpts()...)
	defer cl.Close()
	streams := build(a, b)
	for _, sp := range streams {
		sp.launch()
	}
	warm := cfg.duration(40 * time.Millisecond)
	meas := cfg.duration(160 * time.Millisecond)

	cl.S.RunUntil(sim.Time(warm))
	cl.ResetMeters()
	recvMark := map[*host.Node]int64{}
	for _, n := range cl.Nodes {
		recvMark[n] = n.Stack.BytesReceived
	}
	cl.S.RunUntil(sim.Time(warm + meas))

	// Goodput is summed over the nodes that receive stream traffic.
	var rxBytes int64
	seen := map[*host.Node]bool{}
	for _, sp := range streams {
		if !seen[sp.to] {
			seen[sp.to] = true
			rxBytes += sp.to.Stack.BytesReceived - recvMark[sp.to]
		}
	}
	mbps := float64(rxBytes*8) / meas.Seconds() / 1e6
	if post != nil {
		post(a, b)
	}
	r := microResult{
		Mbps:    mbps,
		CPURecv: b.CPU.Utilization(),
		CPUSend: a.CPU.Utilization(),
	}
	cl.MustVerify()
	return r
}

// key builds the content-addressed identity of point i of runner id
// from the config fields that reach the tables: Seed, Scale, the fault
// plan (a nil plan and the benign zero plan hash apart, but both
// produce the golden tables — the differential test pins that) and the
// cost overrides. Everything else a point reads is a constant of its
// runner's code (the swept values, per-point cost.Params adjustments),
// so the index names it, and code is left to the point cache, which
// keeps each executable's files apart. Parallel, Check, Strict, Obs,
// Cache and Ctx are deliberately excluded — they change how a run
// executes or what it records, never what the tables say (the parallel
// and golden tests pin that property). TestPointKeyConfigSensitivity
// holds this decision, one row per field.
func (c Config) key(id string, i int) string {
	return sweep.Key(id, c.Seed, c.Scale, c.Fault, c.Costs, i)
}

// points runs fn for every point index of runner id, concurrently up
// to cfg.Parallel workers, and returns the rows in point order. fn must
// build all of its own state (cluster, cost.Params) per call, from cfg,
// i and constants of its runner's code. With cfg.Cache set, point i is
// memoized under cfg.key(id, i), so id must name one sweep only (the
// runner's own id). A cancelled cfg.Ctx aborts the sweep between points
// and unwinds the runner with a panic RunContext converts back into an
// error.
func points[T any](cfg Config, id string, n int, fn func(i int) T) []T {
	key := func(i int) string { return cfg.key(id, i) }
	out, err := sweep.CachedRunCtx(cfg.context(), cfg.Cache, cfg.Parallel, n, key, fn)
	if err != nil {
		panic(canceled{err})
	}
	return out
}

func pct(x float64) float64 { return x * 100 }
