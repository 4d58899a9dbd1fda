package datacenter

// The tiers' workers as continuation state machines on sim.Task: the
// web, proxy, client, database and application workers. A worker that
// needs a backend connection dials it on its own task first
// (tcp.Stack.Dial), then enters its request loop. All continuations are
// bound once at construction; the per-request loop allocates only the
// boxed message metadata.

import (
	"ioatsim/internal/host"
	"ioatsim/internal/mem"
	"ioatsim/internal/msg"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// webWorker serves static content on one connection: read a request,
// run the application work, send the document zero-copy.
type webWorker struct {
	web  *Tier
	mc   *msg.Async
	task *sim.Task
	req  request

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
	req, ok := env.Meta.(request)
	if !ok {
		panic("datacenter: expected a request")
	}
	w.req = req
	if w.web.Node.CPU.ExecTask(w.task, w.stepServe, w.web.appWork(WebFixedWork)) {
		return
	}
	w.serve()
}

func (w *webWorker) serve() {
	f := w.web.FS.MustOpen(w.req.path)
	// Static content goes out sendfile-style: zero copy from the page
	// cache.
	w.mc.Send(response{}, f.Size(), f.Buf, tcp.SendOptions{ZeroCopy: true}, w.stepLoop)
}

// proxyWorker serves client requests on one connection: from the
// content cache when it holds the document, otherwise over a persistent
// connection to the tier behind the proxy (the web tier, or the
// application tier of the three-tier layout, whose proxy runs with the
// cache disabled because dynamic content is uncacheable).
type proxyWorker struct {
	proxy   *Tier
	cache   *contentCache
	client  *msg.Async
	backend *msg.Async
	task    *sim.Task
	buf     mem.Buffer

	req request
	n   int

	stepGotReq  func(msg.Envelope)
	stepRoute   func()
	stepReqSent func()
	stepGotResp func(msg.Envelope)
	stepRespond func()
	stepLoop    func()
}

// startProxyWorker starts the worker on a new task (one event), which
// dials the worker's backend connection to service on the backend node,
// then enters the request loop. respBytes is the largest response the
// worker relays.
func startProxyWorker(name string, idx int, proxy *Tier, backend *host.Node, service string,
	cache *contentCache, respBytes int, conn *tcp.Conn) {
	t := proxy.Node.S.NewTask(name)
	t.Start(func() {
		// Each msg.Wrap places a header buffer in the proxy's address
		// space, so this order fixes the addresses the cache prices.
		client := msg.Wrap(conn)
		proxy.Node.Stack.Dial(t, backend.Stack, service, idx%6, idx%6, func(bc *tcp.Conn) {
			bconn := msg.Wrap(bc)
			w := &proxyWorker{
				proxy: proxy, cache: cache, task: t,
				buf: proxy.Node.Buf(respBytes + requestBytes),
			}
			w.client = msg.NewAsync(client, t)
			w.backend = msg.NewAsync(bconn, t)
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
	req, ok := env.Meta.(request)
	if !ok {
		panic("datacenter: expected a request")
	}
	w.req = req
	if w.proxy.Node.CPU.ExecTask(w.task, w.stepRoute, w.proxy.appWork(ProxyFixedWork)) {
		return
	}
	w.route()
}

func (w *proxyWorker) route() {
	if cbuf, hit := w.cache.Get(w.req.path); hit {
		w.client.Send(response{}, cbuf.Size, cbuf, tcp.SendOptions{}, w.stepLoop)
		return
	}
	w.backend.Send(w.req, requestBytes, mem.Buffer{}, tcp.SendOptions{}, w.stepReqSent)
}

func (w *proxyWorker) reqSent() { w.backend.Recv(w.buf, w.stepGotResp) }

func (w *proxyWorker) gotResp(env msg.Envelope) {
	if _, ok := env.Meta.(response); !ok {
		panic("datacenter: expected a response")
	}
	w.n = env.Body
	if cbuf, ok := w.cache.Put(w.req.path, w.n); ok {
		cost := w.proxy.Node.Mem.CopyCost(w.buf.Addr, cbuf.Addr, w.n)
		if w.proxy.Node.CPU.ExecTask(w.task, w.stepRespond, cost) {
			return
		}
	}
	w.respond()
}

func (w *proxyWorker) respond() {
	w.client.Send(response{}, w.n, w.buf, tcp.SendOptions{}, w.stepLoop)
}

// clientWorker is one closed-loop request thread. With a tier set it is
// an emulated proxy client (§5.2.3): before each request it pays the
// proxy's per-request application work on that tier.
type clientWorker struct {
	tier      *Tier
	mc        *msg.Async
	task      *sim.Task
	tr        trace
	dst       mem.Buffer
	completed *int64

	stepSend    func()
	stepSent    func()
	stepGotResp func(msg.Envelope)
}

func startClientWorker(task *sim.Task, tier *Tier, mc *msg.Conn, tr trace,
	dst mem.Buffer, completed *int64) {
	w := &clientWorker{tier: tier, task: task, tr: tr, dst: dst, completed: completed}
	w.mc = msg.NewAsync(mc, task)
	w.stepSend = w.send
	w.stepSent = w.sent
	w.stepGotResp = w.gotResp
	w.loop()
}

func (w *clientWorker) loop() {
	if w.tier != nil && w.tier.Node.CPU.ExecTask(w.task, w.stepSend, w.tier.appWork(ProxyFixedWork)) {
		return
	}
	w.send()
}

func (w *clientWorker) send() {
	w.mc.Send(request{path: w.tr.next()}, requestBytes, mem.Buffer{}, tcp.SendOptions{}, w.stepSent)
}

func (w *clientWorker) sent() { w.mc.Recv(w.dst, w.stepGotResp) }

func (w *clientWorker) gotResp(env msg.Envelope) {
	if _, ok := env.Meta.(response); !ok {
		panic("datacenter: expected a response")
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
	if _, ok := env.Meta.(request); !ok {
		panic("datacenter: expected a request")
	}
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
	w.client.Send(response{}, w.o.ResponseBytes, w.page, tcp.SendOptions{}, w.stepLoop)
}
