package datacenter

// The tiers' workers as continuation state machines on sim.Task: the
// web, proxy, forwarding, client, emulated-client, database and
// application workers. A worker that needs a backend connection dials it
// on its own task first (tcp.Stack.Dial), then enters its request loop.
// All continuations are bound once at construction; the per-request loop
// allocates only the boxed message metadata.

import (
	"ioatsim/internal/host"
	"ioatsim/internal/httpm"
	"ioatsim/internal/mem"
	"ioatsim/internal/msg"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
	"ioatsim/internal/workload"
)

// webWorker serves static content on one connection: read a request,
// run the application work, send the document zero-copy.
type webWorker struct {
	web  *Tier
	mc   *msg.Async
	task *sim.Task
	req  httpm.Request

	stepGotReq func(msg.Envelope)
	stepServe  func()
	stepLoop   func()
}

// startWebWorker starts the worker on a new task (one event); the
// connection is wrapped when that event runs.
func startWebWorker(web *Tier, conn *tcp.Conn, name string) {
	w := &webWorker{web: web, task: web.Node.S.NewTask(name)}
	w.stepGotReq = w.gotReq
	w.stepServe = w.serve
	w.stepLoop = w.loop
	w.task.Start(func() {
		w.mc = msg.NewAsync(msg.Wrap(conn), w.task)
		w.loop()
	})
}

func (w *webWorker) loop() { w.mc.Recv(mem.Buffer{}, w.stepGotReq) }

func (w *webWorker) gotReq(env msg.Envelope) {
	req, ok := env.Meta.(httpm.Request)
	if !ok {
		panic("httpm: expected a request")
	}
	w.req = req
	if w.web.Node.CPU.ExecTask(w.task, w.stepServe, w.web.appWork(WebFixedWork)) {
		return
	}
	w.serve()
}

func (w *webWorker) serve() {
	f := w.web.FS.MustOpen(w.req.Path)
	// Static content goes out sendfile-style: zero copy from the page
	// cache.
	w.mc.Send(httpm.Response{Status: 200, Path: w.req.Path}, f.Size(),
		f.Buf, tcp.SendOptions{ZeroCopy: true}, w.stepLoop)
}

// proxyWorker forwards client requests to the web tier through the
// content cache (two-tier configuration).
type proxyWorker struct {
	proxy   *Tier
	cache   *contentCache
	client  *msg.Async
	backend *msg.Async
	task    *sim.Task
	buf     mem.Buffer

	req  httpm.Request
	resp httpm.Response
	n    int

	stepGotReq  func(msg.Envelope)
	stepRoute   func()
	stepReqSent func()
	stepGotResp func(msg.Envelope)
	stepRespond func()
	stepLoop    func()
}

// startProxyWorker starts the worker on a new task (one event), which
// dials the worker's backend connection to the web tier, then enters the
// request loop.
func startProxyWorker(name string, idx int, proxy, web *Tier, cache *contentCache,
	conn *tcp.Conn, o Options) {
	t := proxy.Node.S.NewTask(name)
	t.Start(func() {
		client := msg.Wrap(conn)
		proxy.Node.Stack.Dial(t, web.Node.Stack, "http", idx%6, idx%6, func(bc *tcp.Conn) {
			backend := msg.Wrap(bc)
			w := &proxyWorker{
				proxy: proxy, cache: cache, task: t,
				buf: proxy.Node.Buf(o.FileSize + httpm.RequestBytes),
			}
			w.client = msg.NewAsync(client, t)
			w.backend = msg.NewAsync(backend, t)
			w.stepGotReq = w.gotReq
			w.stepRoute = w.route
			w.stepReqSent = w.reqSent
			w.stepGotResp = w.gotResp
			w.stepRespond = w.respond
			w.stepLoop = w.loop
			w.loop()
		})
	})
}

func (w *proxyWorker) loop() { w.client.Recv(mem.Buffer{}, w.stepGotReq) }

func (w *proxyWorker) gotReq(env msg.Envelope) {
	req, ok := env.Meta.(httpm.Request)
	if !ok {
		panic("httpm: expected a request")
	}
	w.req = req
	if w.proxy.Node.CPU.ExecTask(w.task, w.stepRoute, w.proxy.appWork(ProxyFixedWork)) {
		return
	}
	w.route()
}

func (w *proxyWorker) route() {
	if cbuf, hit := w.cache.Get(w.req.Path); hit {
		w.client.Send(httpm.Response{Status: 200, Path: w.req.Path},
			cbuf.Size, cbuf, tcp.SendOptions{}, w.stepLoop)
		return
	}
	w.backend.Send(w.req, httpm.RequestBytes, mem.Buffer{}, tcp.SendOptions{}, w.stepReqSent)
}

func (w *proxyWorker) reqSent() { w.backend.Recv(w.buf, w.stepGotResp) }

func (w *proxyWorker) gotResp(env msg.Envelope) {
	resp, ok := env.Meta.(httpm.Response)
	if !ok {
		panic("httpm: expected a response")
	}
	w.resp, w.n = resp, env.Body
	if cbuf, ok := w.cache.Put(w.req.Path, w.n); ok {
		cost := w.proxy.Node.Mem.CopyCost(w.buf.Addr, cbuf.Addr, w.n)
		if w.proxy.Node.CPU.ExecTask(w.task, w.stepRespond, cost) {
			return
		}
	}
	w.respond()
}

func (w *proxyWorker) respond() {
	w.client.Send(w.resp, w.n, w.buf, tcp.SendOptions{}, w.stepLoop)
}

// fwdWorker is the three-tier proxy worker: like proxyWorker but with no
// cache (dynamic content is uncacheable).
type fwdWorker struct {
	proxy   *Tier
	client  *msg.Async
	backend *msg.Async
	task    *sim.Task
	buf     mem.Buffer

	req  httpm.Request
	resp httpm.Response
	n    int

	stepGotReq  func(msg.Envelope)
	stepForward func()
	stepReqSent func()
	stepGotResp func(msg.Envelope)
	stepLoop    func()
}

// startFwdWorker starts the worker on a new task (one event), which
// dials the worker's backend connection to the application tier, then
// enters the request loop.
func startFwdWorker(name string, idx int, proxy *Tier, appNode *host.Node,
	conn *tcp.Conn, o ThreeTierOptions) {
	t := proxy.Node.S.NewTask(name)
	t.Start(func() {
		proxy.Node.Stack.Dial(t, appNode.Stack, "app", idx%6, idx%6, func(bc *tcp.Conn) {
			backend := msg.Wrap(bc)
			w := &fwdWorker{proxy: proxy, task: t,
				buf: proxy.Node.Buf(o.ResponseBytes + httpm.RequestBytes)}
			w.client = msg.NewAsync(msg.Wrap(conn), t)
			w.backend = msg.NewAsync(backend, t)
			w.stepGotReq = w.gotReq
			w.stepForward = w.forward
			w.stepReqSent = w.reqSent
			w.stepGotResp = w.gotResp
			w.stepLoop = w.loop
			w.loop()
		})
	})
}

func (w *fwdWorker) loop() { w.client.Recv(mem.Buffer{}, w.stepGotReq) }

func (w *fwdWorker) gotReq(env msg.Envelope) {
	req, ok := env.Meta.(httpm.Request)
	if !ok {
		panic("httpm: expected a request")
	}
	w.req = req
	if w.proxy.Node.CPU.ExecTask(w.task, w.stepForward, w.proxy.appWork(ProxyFixedWork)) {
		return
	}
	w.forward()
}

func (w *fwdWorker) forward() {
	w.backend.Send(w.req, httpm.RequestBytes, mem.Buffer{}, tcp.SendOptions{}, w.stepReqSent)
}

func (w *fwdWorker) reqSent() { w.backend.Recv(w.buf, w.stepGotResp) }

func (w *fwdWorker) gotResp(env msg.Envelope) {
	resp, ok := env.Meta.(httpm.Response)
	if !ok {
		panic("httpm: expected a response")
	}
	w.resp, w.n = resp, env.Body
	w.client.Send(w.resp, w.n, w.buf, tcp.SendOptions{}, w.stepLoop)
}

// clientWorker is one closed-loop request thread.
type clientWorker struct {
	mc        *msg.Async
	task      *sim.Task
	trace     workload.Trace
	dst       mem.Buffer
	completed *int64

	stepSent    func()
	stepGotResp func(msg.Envelope)
}

func startClientWorker(task *sim.Task, mc *msg.Conn, trace workload.Trace,
	dst mem.Buffer, completed *int64) {
	w := &clientWorker{task: task, trace: trace, dst: dst, completed: completed}
	w.mc = msg.NewAsync(mc, task)
	w.stepSent = w.sent
	w.stepGotResp = w.gotResp
	w.loop()
}

func (w *clientWorker) loop() {
	w.mc.Send(httpm.Request{Path: w.trace.Next()}, httpm.RequestBytes,
		mem.Buffer{}, tcp.SendOptions{}, w.stepSent)
}

func (w *clientWorker) sent() { w.mc.Recv(w.dst, w.stepGotResp) }

func (w *clientWorker) gotResp(env msg.Envelope) {
	if _, ok := env.Meta.(httpm.Response); !ok {
		panic("httpm: expected a response")
	}
	*w.completed++
	w.loop()
}

// emuWorker is an emulated proxy client (§5.2.3): a client thread that
// also pays the proxy's per-request application work.
type emuWorker struct {
	node      *host.Node
	tier      *Tier
	mc        *msg.Async
	task      *sim.Task
	trace     workload.Trace
	dst       mem.Buffer
	completed *int64

	stepSend    func()
	stepSent    func()
	stepGotResp func(msg.Envelope)
}

func startEmuWorker(task *sim.Task, node *host.Node, tier *Tier, mc *msg.Conn,
	trace workload.Trace, dst mem.Buffer, completed *int64) {
	w := &emuWorker{node: node, tier: tier, task: task, trace: trace,
		dst: dst, completed: completed}
	w.mc = msg.NewAsync(mc, task)
	w.stepSend = w.send
	w.stepSent = w.sent
	w.stepGotResp = w.gotResp
	w.loop()
}

func (w *emuWorker) loop() {
	// The emulated client is a proxy worker: it pays the proxy's
	// per-request application work.
	if w.node.CPU.ExecTask(w.task, w.stepSend, w.tier.appWork(ProxyFixedWork)) {
		return
	}
	w.send()
}

func (w *emuWorker) send() {
	w.mc.Send(httpm.Request{Path: w.trace.Next()}, httpm.RequestBytes,
		mem.Buffer{}, tcp.SendOptions{}, w.stepSent)
}

func (w *emuWorker) sent() { w.mc.Recv(w.dst, w.stepGotResp) }

func (w *emuWorker) gotResp(env msg.Envelope) {
	if _, ok := env.Meta.(httpm.Response); !ok {
		panic("httpm: expected a response")
	}
	*w.completed++
	w.loop()
}

// dbWorker answers queries on one database connection.
type dbWorker struct {
	db   *dbTier
	mc   *msg.Async
	task *sim.Task

	stepGotQuery func(msg.Envelope)
	stepReply    func()
	stepLoop     func()
}

func startDBWorker(db *dbTier, conn *tcp.Conn, name string) {
	w := &dbWorker{db: db, task: db.node.S.NewTask(name)}
	w.stepGotQuery = w.gotQuery
	w.stepReply = w.reply
	w.stepLoop = w.loop
	w.task.Start(func() {
		w.mc = msg.NewAsync(msg.Wrap(conn), w.task)
		w.loop()
	})
}

func (w *dbWorker) loop() { w.mc.Recv(mem.Buffer{}, w.stepGotQuery) }

func (w *dbWorker) gotQuery(env msg.Envelope) {
	db := w.db
	q := env.Meta.(dbQuery)
	lines := db.table.Size / db.node.P.CacheLine
	work := DBQueryWork
	// The record: DBRecordBytes of dependent accesses at a
	// key-determined position in the table (the first, when a line is
	// as large as the table).
	recLines := DBRecordBytes / db.node.P.CacheLine
	base := (q.Key * 37) % max(lines-recLines, 1)
	work += db.node.Mem.RandomCost(db.table.Addr+mem.Addr(base*db.node.P.CacheLine), recLines)
	if db.node.CPU.ExecTask(w.task, w.stepReply, work) {
		return
	}
	w.reply()
}

func (w *dbWorker) reply() {
	w.mc.Send("row", DBRecordBytes, mem.Buffer{}, tcp.SendOptions{}, w.stepLoop)
}

// appWorker runs the dynamic-content script on one connection: read a
// request, execute the script, fan queries to the database sequentially,
// render, respond.
type appWorker struct {
	idx    int
	app    *Tier
	client *msg.Async
	db     *msg.Async
	task   *sim.Task
	page   mem.Buffer
	rows   mem.Buffer
	o      ThreeTierOptions

	reqNo int
	q     int
	req   httpm.Request

	stepGotReq    func(msg.Envelope)
	stepQueries   func()
	stepQuerySent func()
	stepGotRow    func(msg.Envelope)
	stepRespond   func()
	stepLoop      func()
}

// startAppWorker starts the worker on a new task (one event), which
// dials the worker's database connection, then enters the request loop.
func startAppWorker(name string, idx int, app *Tier, db *host.Node,
	conn *tcp.Conn, o ThreeTierOptions) {
	t := app.Node.S.NewTask(name)
	t.Start(func() {
		client := msg.Wrap(conn)
		app.Node.Stack.Dial(t, db.Stack, "db", idx%6, idx%6, func(dc *tcp.Conn) {
			dbConn := msg.Wrap(dc)
			w := &appWorker{
				idx: idx, app: app, o: o, task: t,
				page: app.Node.Buf(o.ResponseBytes),
				rows: app.Node.Buf(DBRecordBytes),
			}
			w.client = msg.NewAsync(client, t)
			w.db = msg.NewAsync(dbConn, t)
			w.stepGotReq = w.gotReq
			w.stepQueries = w.startQueries
			w.stepQuerySent = w.querySent
			w.stepGotRow = w.gotRow
			w.stepRespond = w.respond
			w.stepLoop = w.loop
			w.loop()
		})
	})
}

func (w *appWorker) loop() { w.client.Recv(mem.Buffer{}, w.stepGotReq) }

func (w *appWorker) gotReq(env msg.Envelope) {
	req, ok := env.Meta.(httpm.Request)
	if !ok {
		panic("httpm: expected a request")
	}
	w.req = req
	w.reqNo++
	// Script execution: fixed cost plus working-set touches.
	if w.app.Node.CPU.ExecTask(w.task, w.stepQueries, w.app.appWork(AppScriptWork)) {
		return
	}
	w.startQueries()
}

// startQueries fans out the queries (sequential, as PHP/CGI scripts do).
func (w *appWorker) startQueries() {
	w.q = 0
	w.nextQuery()
}

func (w *appWorker) nextQuery() {
	if w.q >= w.o.QueriesPerRequest {
		w.render()
		return
	}
	w.db.Send(dbQuery{Key: w.idx*1000 + w.reqNo*7 + w.q}, 96,
		mem.Buffer{}, tcp.SendOptions{}, w.stepQuerySent)
}

func (w *appWorker) querySent() { w.db.Recv(w.rows, w.stepGotRow) }

func (w *appWorker) gotRow(msg.Envelope) {
	w.q++
	w.nextQuery()
}

// render assembles the page from the rows (a pass over the response
// buffer).
func (w *appWorker) render() {
	cost := w.app.Node.Mem.TouchCost(w.page.Addr, w.o.ResponseBytes)
	if w.app.Node.CPU.ExecTask(w.task, w.stepRespond, cost) {
		return
	}
	w.respond()
}

func (w *appWorker) respond() {
	w.client.Send(httpm.Response{Status: 200, Path: w.req.Path},
		w.o.ResponseBytes, w.page, tcp.SendOptions{}, w.stepLoop)
}
