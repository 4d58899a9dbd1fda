// Package msg provides framed request/response messaging over the
// byte-stream transport: each message is a fixed-size header plus a body
// of declared length. The simulator does not move real bytes, so message
// metadata travels on a zero-cost side channel while all timing and CPU
// cost comes from the underlying stream transfer of header+body bytes.
// Conn holds an endpoint's framing state; Async moves messages over it
// (async.go).
package msg

import (
	"ioatsim/internal/check"
	"ioatsim/internal/mem"
	"ioatsim/internal/tcp"
)

// HeaderBytes is the on-wire size of a message header.
const HeaderBytes = 64

// Envelope pairs a message's metadata with its body length.
type Envelope struct {
	Meta any
	Body int
}

// Conn is one endpoint of a framed connection.
type Conn struct {
	T     *tcp.Conn
	inbox []Envelope
	// hdr is the staging buffer message headers are serialized from/into.
	hdr mem.Buffer
	chk *check.Checker
}

// Wrap builds the framed wrapper for one endpoint. Both endpoints of a
// connection must be wrapped before messages flow.
func Wrap(c *tcp.Conn) *Conn {
	if mc, ok := c.UserData().(*Conn); ok {
		return mc
	}
	mc := &Conn{T: c, hdr: c.Stack().Mem.Space.Alloc(HeaderBytes, 0),
		chk: c.Stack().Checker()}
	c.SetUserData(mc)
	return mc
}

// peer returns the wrapper of the remote endpoint, wrapping it on demand
// (the remote side may not have touched the connection yet).
func (m *Conn) peer() *Conn { return Wrap(m.T.Peer()) }

// post queues an outgoing message's envelope on the peer and opens its
// ledger entries, before any of its bytes move.
func (m *Conn) post(meta any, body int) {
	if body < 0 {
		panic("msg: negative body")
	}
	peer := m.peer()
	peer.inbox = append(peer.inbox, Envelope{Meta: meta, Body: body})
	if m.chk != nil {
		// Every envelope queued must eventually be consumed by a Recv,
		// and framed bytes entering the stream must all come back out.
		m.chk.Ledger("msg:env").In(1)
		m.chk.Ledger("msg:bytes").In(int64(HeaderBytes + body))
	}
}

// pop takes the next envelope once its header bytes have been consumed.
// The envelope was queued at send time, which always precedes the
// arrival of those bytes, so the receiver may start waiting for a
// message before it is sent.
func (m *Conn) pop() Envelope {
	if len(m.inbox) == 0 {
		panic("msg: header bytes arrived without envelope")
	}
	env := m.inbox[0]
	m.inbox = m.inbox[1:]
	return env
}

// delivered closes a received message's ledger entries once its body
// has landed.
func (m *Conn) delivered(env Envelope) {
	if m.chk != nil {
		m.chk.Assert(env.Body >= 0, "msg", "envelope with negative body %d", env.Body)
		m.chk.Ledger("msg:env").Out(1)
		m.chk.Ledger("msg:bytes").Out(int64(HeaderBytes + env.Body))
	}
}

// orHdr returns b, or the header staging buffer when b is empty.
func (m *Conn) orHdr(b mem.Buffer) mem.Buffer {
	if b.Size == 0 {
		return m.hdr
	}
	return b
}
