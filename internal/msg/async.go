package msg

// Continuation-passing framed messaging: the header+body protocol of
// Conn.Send/Recv, driven by a sim.Task through the transport's Sender/
// Receiver state machines and sharing Conn's envelope and ledger code
// (post, pop, delivered). An Async is created once per (endpoint, task)
// on the cold path and reused for every message; continuations are
// bound at construction so the steady state allocates nothing. Callers
// must likewise pass pre-bound done callbacks.

import (
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// Async drives non-blocking framed messaging on one endpoint. At most
// one send and one receive may be in flight at a time (matching the
// transport's one-transfer-per-direction rule).
type Async struct {
	M  *Conn
	tx *tcp.Sender
	rx *tcp.Receiver

	sendBody int
	sendSrc  mem.Buffer
	sendOpts tcp.SendOptions
	sendDone func()

	recvDst  mem.Buffer
	recvEnv  Envelope
	recvDone func(Envelope)

	stepSendBody func()
	stepRecvBody func()
	stepRecvFin  func()
}

// NewAsync returns a reusable continuation-passing wrapper for m, driven
// by t. The task must be the one running the calling state machine: the
// wrapper suspends and resumes it across the underlying stream steps.
func NewAsync(m *Conn, t *sim.Task) *Async {
	a := &Async{M: m, tx: tcp.NewSender(m.T, t), rx: tcp.NewReceiver(m.T, t)}
	a.stepSendBody = a.sendBodyStep
	a.stepRecvBody = a.recvBodyStep
	a.stepRecvFin = a.recvFinish
	return a
}

// Send is the continuation-passing form of Conn.Send: done fires when
// the last payload byte has been handed to the NIC.
func (a *Async) Send(meta any, body int, src mem.Buffer, opts tcp.SendOptions, done func()) {
	a.M.post(meta, body)
	a.sendBody, a.sendSrc, a.sendOpts, a.sendDone = body, src, opts, done
	// Header always goes through the normal copy path.
	a.tx.Send(a.M.hdr, HeaderBytes, a.stepSendBody)
}

// sendBodyStep runs once the header bytes have been handed off.
func (a *Async) sendBodyStep() {
	done := a.sendDone
	a.sendDone = nil
	if a.sendBody > 0 {
		a.tx.SendOpts(a.M.orHdr(a.sendSrc), a.sendBody, a.sendOpts, done)
		return
	}
	done()
}

// Recv is the continuation-passing form of Conn.Recv: done fires with
// the message's envelope once header and body have been consumed into
// dst (the header staging buffer when dst is empty).
func (a *Async) Recv(dst mem.Buffer, done func(Envelope)) {
	a.recvDst, a.recvDone = dst, done
	a.rx.Recv(a.M.hdr, HeaderBytes, a.stepRecvBody)
}

// recvBodyStep runs once the header bytes have been consumed: pop the
// envelope and receive the body.
func (a *Async) recvBodyStep() {
	env := a.M.pop()
	a.recvEnv = env
	if env.Body > 0 {
		a.rx.Recv(a.M.orHdr(a.recvDst), env.Body, a.stepRecvFin)
		return
	}
	a.recvFinish()
}

// recvFinish closes the message's ledger entries and delivers the
// envelope.
func (a *Async) recvFinish() {
	env := a.recvEnv
	a.M.delivered(env)
	done := a.recvDone
	a.recvDone = nil
	done(env)
}

// Task returns the driving task.
func (a *Async) Task() *sim.Task { return a.tx.Task() }
