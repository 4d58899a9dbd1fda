// Package ipc models intra-node inter-process communication through a
// shared-memory ring, the other use the paper's §7 proposes for the copy
// engine: "the asynchronous copy engine can also be used ... to improve
// the communication performance between two processes within the same
// node". Messages are copied producer-buffer -> ring -> consumer-buffer,
// either by the CPU (through the cache) or by the I/OAT engine. Producer
// and consumer are sim.Task continuations.
package ipc

import (
	"ioatsim/internal/host"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
)

// Mode selects who moves the bytes.
type Mode int

const (
	// CPUCopy moves messages with memcpy through the cache.
	CPUCopy Mode = iota
	// EngineCopy offloads both ring copies to the I/OAT engine,
	// overlapping them with the processes' other work.
	EngineCopy
)

// Channel is a unidirectional shared-memory message channel between two
// tasks on one node. At most one Send and one Recv may be in flight at a
// time.
type Channel struct {
	Node *host.Node
	Mode Mode

	ring  mem.Buffer
	slots int
	slot  int

	// queue holds the published, unconsumed messages; inUse counts the
	// ring slots held by messages in flight, bounded by slots.
	queue []message
	inUse int

	// The send in flight: its task, source, message, and done callback;
	// creditWait is set while it waits for a free slot.
	sender     *sim.Task
	src        mem.Buffer
	out        message
	sendDone   func()
	creditWait bool

	// The receive in flight: its task, destination, message, and done
	// callback; msgWait is set while it waits for a message.
	receiver *sim.Task
	dst      mem.Buffer
	in       message
	recvDone func(int)
	msgWait  bool

	stepProduce func()
	stepSubmit  func()
	stepPublish func()
	stepTake    func()
	stepCopyOut func()
	stepEngine  func()
	stepFinish  func()

	// Messages and Bytes count delivered traffic.
	Messages int64
	Bytes    int64
}

type message struct {
	slotAddr mem.Addr
	n        int
	// done fires when the payload is in the ring (engine mode).
	done *sim.Completion
}

// New returns a channel with the given per-message slot size and slot
// count, allocated in the node's address space.
func New(n *host.Node, slotSize, slots int) *Channel {
	if slotSize <= 0 || slots <= 0 {
		panic("ipc: bad ring geometry")
	}
	ch := &Channel{
		Node:  n,
		ring:  n.Mem.Space.Alloc(slotSize*slots, 0),
		slots: slots,
	}
	ch.stepProduce = ch.produce
	ch.stepSubmit = ch.submit
	ch.stepPublish = ch.publish
	ch.stepTake = ch.take
	ch.stepCopyOut = ch.copyOut
	ch.stepEngine = ch.engine
	ch.stepFinish = ch.finish
	return ch
}

// SlotSize returns the maximum message size.
func (ch *Channel) SlotSize() int { return ch.ring.Size / ch.slots }

// Send publishes n bytes from src on behalf of task t, and calls done
// once the message is in the ring's queue. The task waits for ring space
// and for the CPU portion of the copy; in engine mode it goes on as soon
// as the transfer is programmed.
func (ch *Channel) Send(t *sim.Task, src mem.Buffer, n int, done func()) {
	if n > ch.SlotSize() {
		panic("ipc: message exceeds slot size")
	}
	if ch.sendDone != nil {
		panic("ipc: concurrent Send on one channel")
	}
	ch.sender, ch.src, ch.sendDone = t, src, done
	ch.out = message{n: n}
	if ch.inUse < ch.slots {
		ch.inUse++
		ch.produce()
		return
	}
	// Ring full: finish's release hands this send the freed slot.
	ch.creditWait = true
	t.OnWake(ch.stepProduce)
}

// produce copies the message into its slot once the send holds one.
func (ch *Channel) produce() {
	m := &ch.out
	m.slotAddr = ch.ring.Addr + mem.Addr((ch.slot%ch.slots)*ch.SlotSize())
	ch.slot++
	n := ch.Node
	switch ch.Mode {
	case CPUCopy:
		if n.CPU.ExecTask(ch.sender, ch.stepPublish, n.Mem.CopyCost(ch.src.Addr, m.slotAddr, m.n)) {
			return
		}
	case EngineCopy:
		if n.CPU.ExecTask(ch.sender, ch.stepSubmit, n.DMA.SetupCost(m.n)) {
			return
		}
		ch.submit()
		return
	}
	ch.publish()
}

// submit hands the engine-mode copy into the ring to the engine once
// the setup is charged.
func (ch *Channel) submit() {
	m := &ch.out
	m.done = ch.Node.DMA.Submit(ch.src.Addr, m.slotAddr, m.n)
	ch.publish()
}

// publish queues the message, wakes a waiting receive (one event), and
// ends the send.
func (ch *Channel) publish() {
	ch.queue = append(ch.queue, ch.out)
	ch.out = message{}
	if ch.msgWait {
		ch.msgWait = false
		ch.receiver.Wake()
	}
	done := ch.sendDone
	ch.sendDone = nil
	done()
}

// Recv delivers the next message into dst on behalf of task t, and calls
// done with its size once it has been moved. The task waits until a
// message is available and moved; in engine mode it waits on the engine
// instead of burning CPU.
func (ch *Channel) Recv(t *sim.Task, dst mem.Buffer, done func(n int)) {
	if ch.recvDone != nil {
		panic("ipc: concurrent Recv on one channel")
	}
	ch.receiver, ch.dst, ch.recvDone = t, dst, done
	ch.take()
}

// take pops the oldest message, or waits for publish to queue one.
func (ch *Channel) take() {
	if len(ch.queue) == 0 {
		ch.msgWait = true
		ch.receiver.OnWake(ch.stepTake)
		return
	}
	ch.in = ch.queue[0]
	ch.queue = ch.queue[1:]
	if ch.in.done != nil && ch.in.done.WaitTask(ch.receiver, ch.stepCopyOut) {
		return // inbound half still in flight
	}
	ch.copyOut()
}

// copyOut moves the message from its slot into the destination.
func (ch *Channel) copyOut() {
	m, n := &ch.in, ch.Node
	switch ch.Mode {
	case CPUCopy:
		if n.CPU.ExecTask(ch.receiver, ch.stepFinish, n.Mem.CopyCost(m.slotAddr, ch.dst.Addr, m.n)) {
			return
		}
	case EngineCopy:
		if n.CPU.ExecTask(ch.receiver, ch.stepEngine, n.DMA.SetupCost(m.n)) {
			return
		}
		ch.engine()
		return
	}
	ch.finish()
}

// engine starts the engine-mode copy out of the ring once the setup is
// charged, and waits for it.
func (ch *Channel) engine() {
	m := &ch.in
	if ch.Node.DMA.Submit(m.slotAddr, ch.dst.Addr, m.n).WaitTask(ch.receiver, ch.stepFinish) {
		return
	}
	ch.finish()
}

// finish frees the message's slot, handing it to a send waiting for
// ring space (one event), and ends the receive.
func (ch *Channel) finish() {
	n := ch.in.n
	ch.in = message{}
	ch.inUse--
	if ch.creditWait {
		ch.creditWait = false
		ch.inUse++
		ch.sender.Wake()
	}
	ch.Messages++
	ch.Bytes += int64(n)
	done := ch.recvDone
	ch.recvDone = nil
	done(n)
}
