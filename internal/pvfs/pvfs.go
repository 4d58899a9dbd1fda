// Package pvfs implements a Parallel Virtual File System in the style of
// PVFS1 (Carns et al., ALS 2000), the paper's §6 workload: a metadata
// manager providing a cluster-wide name space, I/O daemons (iods) each
// storing file stripes on a local ramfs, and a client library that
// stripes reads and writes across all servers in parallel.
package pvfs

import (
	"fmt"
	"time"

	"ioatsim/internal/host"
	"ioatsim/internal/mem"
	"ioatsim/internal/msg"
	"ioatsim/internal/ramfs"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// DefaultStripe is the stripe unit (PVFS's default of 64 KB).
const DefaultStripe = 64 * 1024

// Application-level cost constants.
const (
	// ReqProc is the iod's fixed cost to parse and dispatch one request.
	ReqProc = 8 * time.Microsecond
	// MetaOp is the manager's cost for one metadata operation.
	MetaOp = 25 * time.Microsecond
)

// FileMeta describes a striped file.
type FileMeta struct {
	Name    string
	Size    int
	Stripe  int
	Servers int
}

// stripeServer returns which iod stores the stripe containing offset.
func (f FileMeta) stripeServer(off int) int {
	return (off / f.Stripe) % f.Servers
}

// opKind is an iod request type.
type opKind int

const (
	opRead opKind = iota
	opWrite
)

// iodReq is one request to an I/O daemon.
type iodReq struct {
	Op   opKind
	Name string
	Off  int // offset within the iod's local stripe file
	Len  int
}

// metaReq is a manager operation.
type metaReq struct {
	Op   string // "create" | "open"
	Meta FileMeta
}

// metaResp answers a manager operation.
type metaResp struct {
	Meta FileMeta
	OK   bool
}

// System is one PVFS deployment: a manager and a set of iods, which the
// paper co-locates on Testbed 1's server node (one iod per GbE port).
type System struct {
	ManagerNode *host.Node
	IODs        []*IOD
	meta        map[string]FileMeta
	stripe      int
}

// IOD is one I/O daemon.
type IOD struct {
	Node  *host.Node
	Port  int
	FS    *ramfs.FS
	index int
	// staging is the daemon's I/O buffer between socket and file system.
	staging mem.Buffer
}

// New builds a PVFS system whose iods all run on serverNode, one per
// port, storing data in per-iod ramfs instances. The metadata manager
// runs on the same node (it does not participate in data transfer,
// paper §3.2).
func New(serverNode *host.Node, iods int, stripe int) *System {
	if stripe <= 0 {
		stripe = DefaultStripe
	}
	sys := &System{ManagerNode: serverNode, meta: make(map[string]FileMeta), stripe: stripe}
	for i := 0; i < iods; i++ {
		iod := &IOD{
			Node:    serverNode,
			Port:    i % len(serverNode.NIC.Ports),
			FS:      ramfs.New(serverNode.Mem),
			index:   i,
			staging: serverNode.Buf(stripe),
		}
		sys.IODs = append(sys.IODs, iod)
		iod.serve()
	}
	sys.serveManager()
	return sys
}

// serveManager runs the metadata service: one worker per connection.
func (sys *System) serveManager() {
	sys.ManagerNode.Stack.Listen("pvfs-mgr").Serve("pvfs-mgr-accept", func(i int, conn *tcp.Conn) {
		startManagerWorker(sys, conn, fmt.Sprintf("pvfs-mgr-%d", i))
	})
}

// metaOp performs one manager operation.
func (sys *System) metaOp(req metaReq) metaResp {
	switch req.Op {
	case "create":
		m := req.Meta
		m.Stripe = sys.stripe
		m.Servers = len(sys.IODs)
		sys.meta[m.Name] = m
		// Allocate the stripe files on each iod.
		for i, iod := range sys.IODs {
			iod.FS.Create(m.Name, localBytes(m, i))
		}
		return metaResp{Meta: m, OK: true}
	case "open":
		m, ok := sys.meta[req.Meta.Name]
		return metaResp{Meta: m, OK: ok}
	default:
		panic("pvfs: unknown manager op " + req.Op)
	}
}

// localBytes returns how many bytes of an n-byte file land on iod i.
func localBytes(m FileMeta, i int) int {
	full := m.Size / m.Stripe
	rem := m.Size % m.Stripe
	n := (full / m.Servers) * m.Stripe
	extra := full % m.Servers
	if i < extra {
		n += m.Stripe
	} else if i == extra {
		n += rem
	}
	if n == 0 {
		n = m.Stripe // pre-allocate one stripe so offsets stay valid
	}
	return n
}

// serve runs the iod's accept loop: one request worker per connection.
func (iod *IOD) serve() {
	service := fmt.Sprintf("pvfs-iod%d", iod.index)
	iod.Node.Stack.Listen(service).Serve(service+"-accept", func(i int, conn *tcp.Conn) {
		iod.Node.CPU.RegisterThread()
		startIODWorker(iod, conn, fmt.Sprintf("%s-w%d", service, i))
	})
}

// Client is one compute node's PVFS client library instance. Its calls
// run on the task it was created with, one at a time.
type Client struct {
	node    *host.Node
	task    *sim.Task
	mgr     *msg.Async
	conns   []*msg.Conn   // one per iod
	workers []*spanWorker // one per iod, reused across Read/Write calls

	// The Read or Write in flight: its arguments, the span workers still
	// running, and its done callback.
	m       FileMeta
	off, n  int
	buf     mem.Buffer
	op      opKind
	running int
	done    func()

	stepFanOut func()
	stepFinish func()
}

// NewClient connects a compute node to the system on behalf of task t,
// one connection per iod (data flows directly between client and iods,
// paper §3.2), and calls done with the client. The iod connection for
// server i uses the client port i%ports, matching the paper's
// VLAN-per-port wiring.
func NewClient(t *sim.Task, node *host.Node, sys *System, done func(*Client)) {
	c := &Client{node: node, task: t}
	c.stepFanOut = c.fanOut
	c.stepFinish = c.finish
	var dialed func(*tcp.Conn)
	dialed = func(conn *tcp.Conn) {
		if c.mgr == nil {
			c.mgr = msg.NewAsync(msg.Wrap(conn), t)
		} else {
			c.conns = append(c.conns, msg.Wrap(conn))
		}
		if i := len(c.conns); i < len(sys.IODs) {
			iod := sys.IODs[i]
			node.Stack.Dial(t, iod.Node.Stack, fmt.Sprintf("pvfs-iod%d", i),
				i%len(node.NIC.Ports), iod.Port, dialed)
			return
		}
		for i := range c.conns {
			c.workers = append(c.workers, newSpanWorker(c, i))
		}
		done(c)
	}
	node.Stack.Dial(t, sys.ManagerNode.Stack, "pvfs-mgr", 0, 0, dialed)
}

// Create creates a striped file of the given size and calls done with
// its metadata.
func (c *Client) Create(name string, size int, done func(FileMeta)) {
	c.metaCall(metaReq{Op: "create", Meta: FileMeta{Name: name, Size: size}}, func(r metaResp) {
		if !r.OK {
			panic("pvfs: create failed")
		}
		done(r.Meta)
	})
}

// metaCall charges the system call, sends req to the manager and calls
// done with the manager's answer.
func (c *Client) metaCall(req metaReq, done func(metaResp)) {
	c.node.CPU.ExecThen(c.task, c.node.P.Syscall, func() {
		c.mgr.Send(req, 128, mem.Buffer{}, tcp.SendOptions{}, func() {
			c.mgr.Recv(mem.Buffer{}, func(env msg.Envelope) { done(env.Meta.(metaResp)) })
		})
	})
}

// span is one stripe-aligned piece of a request on one server.
type span struct {
	server   int
	localOff int
	len      int
}

// spans splits [off, off+n) into per-server stripe pieces.
func (c *Client) spans(m FileMeta, off, n int) []span {
	var out []span
	for n > 0 {
		stripeOff := off % m.Stripe
		l := m.Stripe - stripeOff
		if l > n {
			l = n
		}
		srv := m.stripeServer(off)
		// Local offset: how many full stripes of this file this server
		// holds before this one, times stripe, plus in-stripe offset.
		stripeIdx := off / m.Stripe
		localStripe := stripeIdx / m.Servers
		out = append(out, span{server: srv, localOff: localStripe*m.Stripe + stripeOff, len: l})
		off += l
		n -= l
	}
	return out
}

// Read reads [off, off+n) of the file into dst, issuing the per-server
// stripe requests in parallel and gathering the results, then calls
// done.
func (c *Client) Read(m FileMeta, off, n int, dst mem.Buffer, done func()) {
	c.parallelIO(m, off, n, dst, opRead, done)
}

// Write writes [off, off+n) of the file from src, striping in parallel,
// then calls done.
func (c *Client) Write(m FileMeta, off, n int, src mem.Buffer, done func()) {
	c.parallelIO(m, off, n, src, opWrite, done)
}

// parallelIO charges the system call, then fans the spans out to the
// per-server span workers (continuation state machines, async.go) and
// waits for all of them — the PVFS client library's parallel data path.
func (c *Client) parallelIO(m FileMeta, off, n int, buf mem.Buffer, op opKind, done func()) {
	if n <= 0 {
		done()
		return
	}
	c.m, c.off, c.n, c.buf, c.op, c.done = m, off, n, buf, op, done
	if c.node.CPU.ExecTask(c.task, c.stepFanOut, c.node.P.Syscall) {
		return
	}
	c.fanOut()
}

// fanOut starts one span worker per server the request touches (one
// event each) and suspends the client until spanDone wakes it.
func (c *Client) fanOut() {
	perServer := make([][]span, len(c.conns))
	for _, sp := range c.spans(c.m, c.off, c.n) {
		perServer[sp.server] = append(perServer[sp.server], sp)
	}
	for srv, list := range perServer {
		if len(list) == 0 {
			continue
		}
		c.running++
		c.workers[srv].start(c.m, c.op, c.buf, list, fmt.Sprintf("pvfs-io-%s-%d", c.m.Name, srv))
	}
	c.task.OnWake(c.stepFinish)
}

// spanDone notes one finished span worker; the last one wakes the client
// (one event).
func (c *Client) spanDone() {
	c.running--
	if c.running == 0 {
		c.task.Wake()
	}
}

// finish ends the Read or Write.
func (c *Client) finish() {
	done := c.done
	c.done = nil
	done()
}
