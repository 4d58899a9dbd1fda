package tcp

// The transfer state machines. A Sender or Receiver is the only
// implementation of a transfer: the send side's syscall and copy per
// socket write, segmentation per chunk and window credit, and the
// receive side's CPU or I/OAT-engine copy out of the queued chunks. Each
// is driven by a sim.Task, so every wake is one event dispatch on the
// event-loop goroutine, and each calls its done callback inside the
// event that completes the transfer, so whatever the caller does next
// runs there too, with no event of its own.
//
// A Sender/Receiver is created once per connection endpoint (cold path)
// and reused for every transfer; all continuations are bound at
// construction, so the steady state allocates nothing.

import (
	"time"

	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
	"ioatsim/internal/trace"
)

// Sender drives sends on one connection endpoint. At most one send may
// be in flight on an endpoint; the done callback fires (possibly
// synchronously) when the last byte has been handed to the NIC.
type Sender struct {
	c    *Conn
	task *sim.Task

	src   mem.Buffer
	n     int
	opts  SendOptions
	sent  int
	chunk int // bytes being charged by the in-flight SiteTxSend step
	done  func()

	// Continuations, bound once so steady-state wakes allocate nothing.
	stepLoop func()
	stepWake func()
	stepPost func()
}

// NewSender returns a reusable continuation-passing sender for c, driven
// by t. The task must not be shared with another concurrently-active
// state machine.
func NewSender(c *Conn, t *sim.Task) *Sender {
	s := &Sender{c: c, task: t}
	s.stepLoop = s.loop
	s.stepWake = s.afterWake
	s.stepPost = s.post
	return s
}

// Task returns the driving task.
func (s *Sender) Task() *sim.Task { return s.task }

// Send transmits n bytes from src (cycled if smaller than n) and calls
// done when the last byte has been handed to the NIC. It runs
// synchronously up to the first suspension point, and panics if a send
// is already in flight.
func (s *Sender) Send(src mem.Buffer, n int, done func()) {
	s.SendOpts(src, n, SendOptions{}, done)
}

// SendOpts is Send with options.
func (s *Sender) SendOpts(src mem.Buffer, n int, opts SendOptions, done func()) {
	if s.done != nil {
		panic("tcp: concurrent Send on one connection")
	}
	s.src, s.n, s.opts, s.sent, s.done = src, n, opts, 0, done
	s.loop()
}

// loop is the sender's main state: it transmits chunks until the
// transfer completes, the window closes (suspend on the tx-waiter list,
// woken by applyCredit), or a CPU charge suspends the task.
func (s *Sender) loop() {
	c := s.c
	st := c.stack
	pm := st.P
	for {
		if s.sent >= s.n {
			done := s.done
			s.done = nil
			done()
			return
		}
		if c.inflight >= c.window {
			// Window stall: park until applyCredit reopens the window.
			if c.txWaiter != nil {
				panic("tcp: concurrent Send on one connection")
			}
			c.txWaiter = s.task
			s.task.OnWake(s.stepWake)
			return
		}
		chunk := s.n - s.sent
		if chunk > pm.ChunkMax {
			chunk = pm.ChunkMax
		}
		if free := c.window - c.inflight; chunk > free {
			chunk = free
		}

		var work time.Duration = pm.Syscall
		if !s.opts.ZeroCopy {
			kb := st.txPool.Get()
			srcOff := 0
			if s.src.Size > chunk {
				srcOff = s.sent % (s.src.Size - chunk + 1)
			}
			work += st.Mem.CopyCost(s.src.Addr+mem.Addr(srcOff), kb.Addr, chunk)
			st.txPool.Put(kb)
		}
		work += st.NIC.TxCost(chunk)
		s.chunk = chunk
		if st.CPU.ExecTaskSite(s.task, s.stepPost, trace.SiteTxSend, work) {
			return
		}
		s.postChunk()
	}
}

// afterWake resumes a window-stalled sender: charge the thread wake-up
// cost, then re-check the window.
//
//ioat:hotpath
func (s *Sender) afterWake() {
	st := s.c.stack
	if st.CPU.ExecTaskSite(s.task, s.stepLoop, trace.SiteCtxSwitch, st.CPU.WakeCost()) {
		return
	}
	s.loop()
}

// post re-enters the loop after the per-chunk CPU charge completes.
//
//ioat:hotpath
func (s *Sender) post() {
	s.postChunk()
	s.loop()
}

// postChunk hands the charged chunk to the NIC.
//
//ioat:hotpath
func (s *Sender) postChunk() {
	c := s.c
	st := c.stack
	pm := st.P
	chunk := s.chunk
	c.inflight += chunk
	if st.chk != nil {
		st.chk.Assert(chunk > 0 && c.inflight <= c.window,
			"tcp", "%s sent %d-byte chunk, inflight %d over window %d",
			st.Name, chunk, c.inflight, c.window)
		st.chk.Ledger("tcp:stream").In(int64(chunk))
	}
	st.BytesSent += int64(chunk)
	lc := st.chunkPool.Get()
	lc.Bytes = chunk
	lc.Frames = pm.Frames(chunk)
	lc.WireBytes = pm.WireBytes(chunk)
	lc.Meta = c.peer
	if st.fp != nil {
		lc.Seq = c.sndNxt
		st.trackSeg(c, c.sndNxt, chunk)
		c.sndNxt += int64(chunk)
	}
	st.NIC.Port(c.localPort).Send(c.peer.stack.NIC.Port(c.peerPort), lc)
	if st.obs != nil {
		st.obs.Instant(trace.TidTCP, trace.SiteTCPSegment, int64(chunk))
	}
	if st.segHist != nil {
		st.segHist.Observe(float64(chunk))
	}
	st.NIC.TxComplete(c.localPort, c, chunk)
	s.sent += chunk
}

// Receiver drives receives on one connection endpoint. At most one
// receive may be in flight on an endpoint; done fires when the requested
// bytes have arrived and been copied.
type Receiver struct {
	c    *Conn
	task *sim.Task

	dst     mem.Buffer
	need    int
	off     int
	pd      *pending
	m       int // bytes being consumed from pd by the in-flight step
	retired []*pending
	done    func()

	stepBegin   func()
	stepLoop    func()
	stepWake    func()
	stepDMASub  func()
	stepDMAWait func()
	stepPost    func()
}

// NewReceiver returns a reusable continuation-passing receiver for c,
// driven by t.
func NewReceiver(c *Conn, t *sim.Task) *Receiver {
	r := &Receiver{c: c, task: t}
	r.stepBegin = r.begin
	r.stepLoop = r.loop
	r.stepWake = r.afterWake
	r.stepDMASub = r.afterDMASubmitCharge
	r.stepDMAWait = r.afterRecvCharge
	r.stepPost = r.post
	return r
}

// Task returns the driving task.
func (r *Receiver) Task() *sim.Task { return r.task }

// Recv consumes exactly n bytes of the stream into dst (cycled if
// smaller) and calls done when they have all been copied — by the CPU
// through the cache, or by the I/OAT engine. Kernel buffers are retained
// until done fires (the net_dma skb lifetime), so large in-flight
// messages hold a large receive-path working set. It runs synchronously
// up to the first suspension point, and panics if a receive is already
// in flight.
func (r *Receiver) Recv(dst mem.Buffer, n int, done func()) {
	c := r.c
	st := c.stack
	pm := st.P
	if r.done != nil {
		panic("tcp: concurrent Recv on one connection")
	}
	if n <= 0 {
		done()
		return
	}
	r.dst, r.need, r.off, r.done = dst, n, 0, done
	if st.Feat.DMACopy {
		// Pin the posted buffer once per recv call. posted is only set
		// once the pin charge completes: a chunk arriving mid-pin must
		// not trigger the eager DMA submit.
		pin := time.Duration(pm.Pages(n)) * pm.PinPerPage
		if st.CPU.ExecTaskSite(r.task, r.stepBegin, trace.SitePin, pin) {
			return
		}
	}
	r.begin()
}

// begin marks the receive as posted and enters the consume loop; it runs
// when the pin charge (if any) has completed.
func (r *Receiver) begin() {
	r.c.posted = true
	r.retired = r.c.doneScratch[:0]
	r.loop()
}

// loop consumes queued chunks until the transfer completes, the queue
// drains (suspend as the rx waiter, woken by onReceive), or a CPU charge
// or DMA wait suspends the task.
func (r *Receiver) loop() {
	c := r.c
	st := c.stack
	pm := st.P
	for {
		if r.need <= 0 {
			r.finish()
			return
		}
		if c.rxAvail == 0 {
			if c.rxWaiter != nil {
				panic("tcp: concurrent Recv on one connection")
			}
			c.rxWaiter = r.task
			r.task.OnWake(r.stepWake)
			return
		}
		pd := c.rxq[c.rxqHead]
		m := pd.remaining()
		if m > r.need {
			m = r.need
		}
		r.pd, r.m = pd, m

		if st.Feat.DMACopy {
			if pd.dma == nil {
				// submitDMA from recv context: the per-frame submit cost
				// charges the reader before the engine sees the chunk.
				frames := pd.rx.Chunk.Frames
				submit := time.Duration(frames) * pm.DMAFrameSubmit
				if st.CPU.ExecTaskSite(r.task, r.stepDMASub, trace.SiteDMASubmit, submit) {
					return
				}
				pd.startDMA(st)
			}
			if st.CPU.ExecTaskSite(r.task, r.stepDMAWait, trace.SiteRecvCopy, pm.Syscall) {
				return
			}
			if r.pd.dma.WaitTask(r.task, r.stepPost) {
				return
			}
		} else {
			work := pm.Syscall + c.copyCost(pd, m, r.dst, r.off)
			if st.CPU.ExecTaskSite(r.task, r.stepPost, trace.SiteRecvCopy, work) {
				return
			}
		}
		r.consume()
	}
}

// afterWake resumes a queue-drained receiver: charge the wake-up cost,
// then re-check the queue.
//
//ioat:hotpath
func (r *Receiver) afterWake() {
	st := r.c.stack
	if st.CPU.ExecTaskSite(r.task, r.stepLoop, trace.SiteCtxSwitch, st.CPU.WakeCost()) {
		return
	}
	r.loop()
}

// afterDMASubmitCharge runs once the submit cost has been charged: hand
// the chunk to the engine, then charge the recv syscall and wait for the
// copy.
//
//ioat:hotpath
func (r *Receiver) afterDMASubmitCharge() {
	st := r.c.stack
	r.pd.startDMA(st)
	if st.CPU.ExecTaskSite(r.task, r.stepDMAWait, trace.SiteRecvCopy, st.P.Syscall) {
		return
	}
	r.afterRecvCharge()
}

// afterRecvCharge waits for the engine copy after the recv syscall
// charge completes.
//
//ioat:hotpath
func (r *Receiver) afterRecvCharge() {
	if r.pd.dma.WaitTask(r.task, r.stepPost) {
		return
	}
	r.post()
}

// post re-enters the loop after a copy (CPU or engine) completes.
//
//ioat:hotpath
func (r *Receiver) post() {
	r.consume()
	r.loop()
}

// consume applies the consumed bytes to the connection and returns their
// window credit to the sender.
//
//ioat:hotpath
func (r *Receiver) consume() {
	c := r.c
	st := c.stack
	pd, m := r.pd, r.m
	pd.off += m
	c.rxAvail -= m
	r.need -= m
	if st.bkGauge != nil {
		st.noteBacklog(int64(-m))
	}
	if st.chk != nil {
		st.chk.Assert(pd.off <= pd.rx.Chunk.Bytes,
			"tcp", "%s consumed %d bytes of a %d-byte chunk", st.Name, pd.off, pd.rx.Chunk.Bytes)
		st.chk.Assert(c.rxAvail >= 0,
			"tcp", "%s receive backlog went negative (%d)", st.Name, c.rxAvail)
	}
	r.off = (r.off + m) % max(r.dst.Size, 1)
	if pd.remaining() == 0 {
		c.rxq[c.rxqHead] = nil
		c.rxqHead++
		if c.rxqHead == len(c.rxq) {
			c.rxq = c.rxq[:0]
			c.rxqHead = 0
		}
		r.retired = append(r.retired, pd)
	}
	c.credit(m)
}

// finish releases the transfer's kernel buffers and fires the done
// callback.
//
//ioat:hotpath
func (r *Receiver) finish() {
	c := r.c
	st := c.stack
	c.posted = false
	for _, pd := range r.retired {
		pd.rx.Free()
		if pd.dma != nil {
			// The completion has fired and its waiter resumed (this very
			// transfer waited on it), so it is safe to rearm for reuse.
			st.DMA.Recycle(pd.dma)
		}
		*pd = pending{}
		st.pendFree = append(st.pendFree, pd)
	}
	c.doneScratch = r.retired[:0]
	r.retired = nil
	r.pd = nil
	done := r.done
	r.done = nil
	done()
}
