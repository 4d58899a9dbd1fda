// Package ioat models Intel's I/O Acceleration Technology as a
// configurable feature set (paper §2.2): split headers, the asynchronous
// DMA copy engine, and multiple receive queues. It also provides the
// user-level asynchronous memcpy API the paper's §7/§8 proposes as future
// work, built on the same copy engine.
package ioat

import (
	"time"

	"ioatsim/internal/cpu"
	"ioatsim/internal/dma"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
)

// Features selects which I/OAT capabilities a node's platform exposes.
type Features struct {
	// DMACopy offloads the kernel-to-user receive copy onto the
	// asynchronous copy engine (paper §2.2.2). On the I/OAT platform it
	// also implies full-packet direct cache placement unless SplitHeader
	// confines placement to headers.
	DMACopy bool
	// SplitHeader delivers protocol headers into a small dedicated ring
	// placed directly in the cache, keeping application payload out of
	// it (paper §2.2.1).
	SplitHeader bool
	// MultiQueue spreads receive processing across cores by flow
	// (paper §2.2.3). Disabled by default, as it was in the paper's
	// Linux kernel; the ablation benches turn it on.
	MultiQueue bool
}

// None returns the traditional (non-I/OAT) configuration.
func None() Features { return Features{} }

// Linux returns the feature set the paper's kernel patch enabled:
// split headers and the DMA copy engine, with multiple receive queues
// disabled (paper §2.2.3).
func Linux() Features { return Features{DMACopy: true, SplitHeader: true} }

// DMAOnly returns the copy engine without split headers — the
// intermediate "I/OAT-DMA" configuration of the paper's §4.5 split-up.
func DMAOnly() Features { return Features{DMACopy: true} }

// Full returns every feature including multiple receive queues, the
// configuration the paper could not measure.
func Full() Features {
	return Features{DMACopy: true, SplitHeader: true, MultiQueue: true}
}

// Label returns the name the paper uses for this configuration.
func (f Features) Label() string {
	switch {
	case f.DMACopy && f.SplitHeader && f.MultiQueue:
		return "I/OAT-FULL"
	case f.DMACopy && f.SplitHeader:
		return "I/OAT"
	case f.DMACopy:
		return "I/OAT-DMA"
	case !f.DMACopy && !f.SplitHeader && !f.MultiQueue:
		return "non-I/OAT"
	default:
		return "I/OAT-partial"
	}
}

// Copier is the user-level asynchronous memory-copy service (paper §8's
// "asynchronous memory copy operation to user applications"): it pins the
// buffers, programs the engine, and lets the caller overlap computation
// with the copy.
type Copier struct {
	CPU    *cpu.CPU
	Engine *dma.Engine
	Mem    *mem.Model

	// pinned is the registration cache: buffers pinned once stay pinned
	// (like RDMA memory registration), so steady-state copies pay only
	// the descriptor setup.
	pinned map[mem.Addr]int
}

// NewCopier returns a copier bound to one node's CPU, engine and memory.
func NewCopier(c *cpu.CPU, e *dma.Engine, m *mem.Model) *Copier {
	return &Copier{CPU: c, Engine: e, Mem: m, pinned: make(map[mem.Addr]int)}
}

// pinCost returns the CPU cost to pin [addr, addr+n), zero if that exact
// region is already registered.
func (c *Copier) pinCost(addr mem.Addr, n int) time.Duration {
	if c.pinned[addr] >= n {
		return 0
	}
	c.pinned[addr] = n
	return c.Engine.PinCost(n)
}

// Start begins an asynchronous copy of n bytes from src to dst on behalf
// of task t. The task is charged only the CPU setup portion (page
// pinning on first use + descriptor programming); done then receives the
// completion that fires when the engine has moved the data. Between
// done and the completion the task's CPU is free — that is the point of
// the engine.
func (c *Copier) Start(t *sim.Task, src, dst mem.Addr, n int, done func(*sim.Completion)) {
	setup := c.Engine.SetupCost(n) + c.pinCost(src, n) + c.pinCost(dst, n)
	c.CPU.ExecThen(t, setup, func() { done(c.Engine.Submit(src, dst, n)) })
}

// CopySync performs a CPU memcpy through the cache, charged to task t,
// for comparison with Start (the paper's Fig. 6 copy-cache /
// copy-nocache bars). It returns the copy's CPU time, priced at the call,
// and runs next once the copy completes.
func (c *Copier) CopySync(t *sim.Task, src, dst mem.Addr, n int, next func()) time.Duration {
	d := c.Mem.CopyCost(src, dst, n)
	c.CPU.ExecThen(t, d, next)
	return d
}
