package datacenter

import (
	"fmt"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// The paper's §5.1 names three workload classes and evaluates two; this
// file implements the third — dynamic content — on the full three-tier
// layout of its Fig. 2a: proxy -> application servers (CGI/PHP/servlet
// work) -> database tier.

// Dynamic-content cost constants.
const (
	// AppScriptWork is the CPU an application server spends running the
	// script (PHP/CGI/servlet) for one request, excluding memory stalls.
	AppScriptWork = 250 * time.Microsecond
	// DBQueryWork is the database tier's CPU per query (parse, plan,
	// B-tree descent), excluding the record touch.
	DBQueryWork = 60 * time.Microsecond
	// DBRecordBytes is the data one query returns.
	DBRecordBytes = 1 * cost.KB
	// DBTableBytes is the database's hot table working set, touched per
	// query through the cache.
	DBTableBytes = 4 * cost.MB
)

// ThreeTierOptions configure a dynamic-content run.
type ThreeTierOptions struct {
	Options
	// QueriesPerRequest is how many database queries each dynamic
	// request triggers.
	QueriesPerRequest int
	// ResponseBytes is the rendered page size returned to the client.
	ResponseBytes int
}

func (o *ThreeTierOptions) defaults() {
	o.Options.defaults()
	if o.QueriesPerRequest == 0 {
		o.QueriesPerRequest = 3
	}
	if o.ResponseBytes == 0 {
		o.ResponseBytes = 8 * cost.KB
	}
}

// ThreeTierMetrics extends Metrics with the two inner tiers.
type ThreeTierMetrics struct {
	Metrics
	AppCPU float64
	DBCPU  float64
}

// dbQuery is one request to the database tier.
type dbQuery struct {
	Key int
}

// dbTier is the back-end database: a node with a hot table region.
type dbTier struct {
	node  *host.Node
	table mem.Buffer
}

// startDBTier runs the database service: one worker per connection,
// each query pays parse/plan CPU plus a record touch through the cache
// and returns DBRecordBytes.
func startDBTier(n *host.Node) *dbTier {
	db := &dbTier{node: n, table: n.Mem.Space.Alloc(DBTableBytes, 0)}
	n.Stack.Listen("db").Serve("db-accept", func(i int, conn *tcp.Conn) {
		n.CPU.RegisterThread()
		startDBWorker(db, conn, fmt.Sprintf("db-worker%d", i))
	})
	return db
}

// startAppTier runs the application servers: per-connection workers that
// execute the script, fan queries to the database and render the page.
func startAppTier(app *Tier, db *host.Node, o ThreeTierOptions) {
	app.Node.Stack.Listen("app").Serve("app-accept", func(i int, conn *tcp.Conn) {
		app.Node.CPU.RegisterThread()
		startAppWorker(fmt.Sprintf("app-worker%d", i), i, app, db, conn, o)
	})
}

// RunThreeTier builds and measures the dynamic-content configuration:
// clients -> proxy -> application tier -> database tier, every server
// tier with the same I/OAT feature set.
func RunThreeTier(o ThreeTierOptions) ThreeTierMetrics {
	o.defaults()
	cl := host.NewCluster(o.P, o.Seed, o.Host...)
	defer cl.Close()
	proxyNode := cl.Add("proxy", o.Feat, 6)
	appNode := cl.Add("app", o.Feat, 6)
	dbNode := cl.Add("db", o.Feat, 6)
	clients := cl.AddClients(o.ClientNodes, ioat.None())

	proxy := newTier(proxyNode, cl.Rand.Fork())
	app := newTier(appNode, cl.Rand.Fork())
	startDBTier(dbNode)
	startAppTier(app, dbNode, o)

	// The proxy forwards every request to the app tier (dynamic content
	// is uncacheable).
	proxyNode.Stack.Listen("http").Serve("proxy-accept", func(i int, conn *tcp.Conn) {
		proxyNode.CPU.RegisterThread()
		startFwdWorker(fmt.Sprintf("proxy-worker%d", i), i, proxy, appNode, conn, o)
	})

	var completed int64
	for ci, cn := range clients {
		for t := 0; t < o.ThreadsPerClient; t++ {
			launchClient(cn, proxyNode, ci%6, fmt.Sprintf("c%d-%d", ci, t),
				&staticPath{}, o.ResponseBytes, &completed)
		}
	}

	cl.S.RunUntil(sim.Time(o.Warm))
	cl.ResetMeters()
	mark := completed
	cl.S.RunUntil(sim.Time(o.Warm + o.Meas))

	m := ThreeTierMetrics{}
	m.Completed = completed - mark
	m.TPS = float64(m.Completed) / o.Meas.Seconds()
	m.ProxyCPU = proxyNode.CPU.Utilization()
	m.AppCPU = appNode.CPU.Utilization()
	m.DBCPU = dbNode.CPU.Utilization()
	cl.MustVerify()
	return m
}

// staticPath is the trace for dynamic requests: the path is a script
// name; popularity does not matter because responses are uncacheable.
type staticPath struct{}

// Next implements workload.Trace.
func (s *staticPath) Next() string { return "/app.cgi" }
