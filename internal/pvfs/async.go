package pvfs

// The PVFS servers' request loops and the client library's per-server
// span workers, as continuation state machines on sim.Task: the metadata
// manager's worker, the iod request worker, and the span worker. Each
// binds its steps once, so a request allocates only its boxed message
// metadata.

import (
	"time"

	"ioatsim/internal/mem"
	"ioatsim/internal/msg"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// managerWorker answers metadata operations on one connection.
type managerWorker struct {
	sys  *System
	mc   *msg.Async
	task *sim.Task
	req  metaReq

	stepGotReq func(msg.Envelope)
	stepReply  func()
	stepLoop   func()
}

// startManagerWorker starts the worker on a new task (one event); the
// connection is wrapped when that event runs.
func startManagerWorker(sys *System, conn *tcp.Conn, name string) {
	w := &managerWorker{sys: sys, task: sys.ManagerNode.S.NewTask(name)}
	w.stepGotReq = w.gotReq
	w.stepReply = w.reply
	w.stepLoop = w.loop
	w.task.Start(func() {
		w.mc = msg.NewAsync(msg.Wrap(conn), w.task)
		w.loop()
	})
}

func (w *managerWorker) loop() { w.mc.Recv(mem.Buffer{}, w.stepGotReq) }

func (w *managerWorker) gotReq(env msg.Envelope) {
	w.req = env.Meta.(metaReq)
	if w.sys.ManagerNode.CPU.ExecTask(w.task, w.stepReply, MetaOp) {
		return
	}
	w.reply()
}

func (w *managerWorker) reply() {
	w.mc.Send(w.sys.metaOp(w.req), 128, mem.Buffer{}, tcp.SendOptions{}, w.stepLoop)
}

// iodWorker services one client connection: reads stream file data from
// the local ramfs to the socket (read + write, the PVFS1 data path),
// writes land in the local ramfs after the socket receive.
type iodWorker struct {
	iod  *IOD
	mc   *msg.Async
	task *sim.Task
	req  iodReq

	stepGotReq   func(msg.Envelope)
	stepDispatch func()
	stepReply    func()
	stepLoop     func()
}

// startIODWorker starts the worker on a new task (one event); the
// connection is wrapped when that event runs.
func startIODWorker(iod *IOD, conn *tcp.Conn, name string) {
	w := &iodWorker{iod: iod, task: iod.Node.S.NewTask(name)}
	w.stepGotReq = w.gotReq
	w.stepDispatch = w.dispatch
	w.stepReply = w.reply
	w.stepLoop = w.loop
	w.task.Start(func() {
		w.mc = msg.NewAsync(msg.Wrap(conn), w.task)
		w.loop()
	})
}

func (w *iodWorker) loop() { w.mc.Recv(w.iod.staging, w.stepGotReq) }

func (w *iodWorker) gotReq(env msg.Envelope) {
	w.req = env.Meta.(iodReq)
	if w.iod.Node.CPU.ExecTask(w.task, w.stepDispatch, ReqProc) {
		return
	}
	w.dispatch()
}

func (w *iodWorker) dispatch() {
	iod := w.iod
	f := iod.FS.MustOpen(w.req.Name)
	var cost time.Duration
	switch w.req.Op {
	case opRead:
		// read(): page cache -> staging buffer, then send.
		cost = iod.FS.ReadCost(f, w.req.Off, w.req.Len, iod.staging.Addr)
	case opWrite:
		// Data arrived with the request envelope into staging;
		// write(): staging -> page cache, then ack.
		cost = iod.FS.WriteCost(f, w.req.Off, w.req.Len, iod.staging.Addr)
	}
	if iod.Node.CPU.ExecTask(w.task, w.stepReply, cost) {
		return
	}
	w.reply()
}

func (w *iodWorker) reply() {
	switch w.req.Op {
	case opRead:
		w.mc.Send("data", w.req.Len, w.iod.staging, tcp.SendOptions{}, w.stepLoop)
	case opWrite:
		w.mc.Send("ack", 0, mem.Buffer{}, tcp.SendOptions{}, w.stepLoop)
	}
}

// spanWorker drives one server's share of a striped request — the
// client library's per-server data path. One worker per iod connection,
// created at client setup and started (one event) for each Read/Write.
type spanWorker struct {
	c    *Client
	task *sim.Task
	mc   *msg.Async

	m    FileMeta
	op   opKind
	buf  mem.Buffer
	list []span
	i    int

	stepLoop func()
	stepSent func()
	stepGot  func(msg.Envelope)
}

func newSpanWorker(c *Client, srv int) *spanWorker {
	w := &spanWorker{c: c, task: c.node.S.NewTask("")}
	w.mc = msg.NewAsync(c.conns[srv], w.task)
	w.stepLoop = w.loop
	w.stepSent = w.sent
	w.stepGot = w.got
	return w
}

// start launches the worker over its span list; it reports to the
// client's spanDone when the last span completes.
func (w *spanWorker) start(m FileMeta, op opKind, buf mem.Buffer, list []span, name string) {
	w.m, w.op, w.buf, w.list, w.i = m, op, buf, list, 0
	w.task.SetName(name)
	w.task.Start(w.stepLoop)
}

func (w *spanWorker) loop() {
	if w.i >= len(w.list) {
		w.list = nil
		w.c.spanDone()
		return
	}
	sp := w.list[w.i]
	switch w.op {
	case opRead:
		w.mc.Send(iodReq{Op: opRead, Name: w.m.Name, Off: sp.localOff, Len: sp.len},
			128, mem.Buffer{}, tcp.SendOptions{}, w.stepSent)
	case opWrite:
		w.mc.Send(iodReq{Op: opWrite, Name: w.m.Name, Off: sp.localOff, Len: sp.len},
			sp.len, w.buf, tcp.SendOptions{}, w.stepSent)
	}
}

func (w *spanWorker) sent() {
	if w.op == opRead {
		w.mc.Recv(w.buf, w.stepGot)
		return
	}
	w.mc.Recv(mem.Buffer{}, w.stepGot)
}

func (w *spanWorker) got(msg.Envelope) {
	w.i++
	w.loop()
}
