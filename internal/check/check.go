// Package check is the simulator's runtime invariant checker: a debug
// harness the device models drive while a simulation runs, enforcing
// cross-layer conservation laws that no single package can see on its
// own — bytes entering the fabric equal bytes delivered plus in flight,
// event dispatch times never move backwards, utilizations stay inside
// [0, 1], DMA descriptor chains sum to their transfer lengths.
//
// A Checker is installed per simulator via sim.WithProbe and handed to
// each device model through its SetChecker (host.WithCheck does both for
// whole clusters). When no checker is installed every probe site reduces
// to one nil comparison, so the benchmark configurations stay on the
// allocation-free fast path.
//
// Violations are recorded, not thrown: a run completes and the harness
// (host.Cluster.Verify, the golden-corpus test, the fuzz targets) asks
// for the verdict once at the end. Set Strict to panic at the first
// violation instead, which pins the failure to its simulated instant.
package check

import (
	"fmt"

	"ioatsim/internal/sim"
)

// maxViolations bounds the recorded diagnostics; further failures are
// counted but not formatted.
const maxViolations = 32

// Checker accumulates invariant state for one simulator.
type Checker struct {
	// Strict makes every failed assertion panic immediately instead of
	// recording a violation for later collection.
	Strict bool

	// Event-causality state (fed by the sim.Probe hooks).
	events       uint64
	lastDispatch sim.Time
	haveDispatch bool

	ledgers map[string]*Ledger
	order   []string

	finals   []func(*Checker)
	finished bool

	violations []string
	dropped    int
}

// New returns an empty checker. It implements sim.Probe, so it can be
// handed straight to sim.WithProbe.
func New() *Checker {
	return &Checker{ledgers: make(map[string]*Ledger)}
}

// EventScheduled implements sim.Probe: no event may be scheduled into
// the past. (The engine independently panics on this; the probe records
// it so unchecked-panic refactors cannot silently drop the guarantee.)
func (c *Checker) EventScheduled(now, at sim.Time) {
	if at < now {
		c.Failf("sim", "event scheduled at %v before now %v", at, now)
	}
}

// EventDispatched implements sim.Probe: dispatch order is the heap's
// core contract — timestamps handed to callbacks must be monotone.
func (c *Checker) EventDispatched(at sim.Time) {
	c.events++
	if c.haveDispatch && at < c.lastDispatch {
		c.Failf("sim", "dispatch time moved backwards: %v after %v", at, c.lastDispatch)
	}
	c.haveDispatch = true
	c.lastDispatch = at
}

// Failf records one violation.
func (c *Checker) Failf(component, format string, args ...any) {
	msg := component + ": " + fmt.Sprintf(format, args...)
	if c.Strict {
		panic("check: " + msg)
	}
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, msg)
}

// Assert records a violation when cond is false.
func (c *Checker) Assert(cond bool, component, format string, args ...any) {
	if !cond {
		c.Failf(component, format, args...)
	}
}

// InRange asserts lo <= v <= hi (NaN always fails).
func (c *Checker) InRange(component, what string, v, lo, hi float64) {
	if !(v >= lo && v <= hi) { // negated so NaN fails
		c.Failf(component, "%s = %v outside [%v, %v]", what, v, lo, hi)
	}
}

// OnFinish registers an end-of-run audit (e.g. a full cache-structure
// walk too expensive to run per operation). Finish runs each exactly
// once.
func (c *Checker) OnFinish(f func(*Checker)) {
	c.finals = append(c.finals, f)
}

// Finish runs the registered end-of-run audits and the final ledger
// balance checks. It is idempotent.
func (c *Checker) Finish() {
	if c.finished {
		return
	}
	c.finished = true
	for _, f := range c.finals {
		f(c)
	}
	for _, name := range c.order {
		l := c.ledgers[name]
		if l.out > l.in {
			c.Failf("ledger", "%s: delivered %d units but only %d entered", name, l.out, l.in)
		}
	}
}

// Err summarizes the run: nil when clean, otherwise one error listing
// every recorded violation.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	msg := fmt.Sprintf("check: %d invariant violation(s)", len(c.violations)+c.dropped)
	for _, v := range c.violations {
		msg += "\n  " + v
	}
	if c.dropped > 0 {
		msg += fmt.Sprintf("\n  ... and %d more", c.dropped)
	}
	return fmt.Errorf("%s", msg)
}

// Ledger is one named conservation account: units (bytes, envelopes,
// descriptors) enter with In and leave with Out, and at no instant may
// more have left than entered. The difference is the in-flight amount.
type Ledger struct {
	chk     *Checker
	name    string
	in, out int64
}

// Ledger returns the account with the given name, creating it on first
// use. All devices on one simulator share the checker, so accounts with
// the same name aggregate across devices — that is what makes the
// cross-layer laws (NIC in == transport out + in flight) checkable.
func (c *Checker) Ledger(name string) *Ledger {
	if l, ok := c.ledgers[name]; ok {
		return l
	}
	l := &Ledger{chk: c, name: name}
	c.ledgers[name] = l
	c.order = append(c.order, name)
	return l
}

// In records n units entering the account.
func (l *Ledger) In(n int64) {
	if n < 0 {
		l.chk.Failf("ledger", "%s: negative inflow %d", l.name, n)
		return
	}
	l.in += n
}

// Out records n units leaving the account; leaving more than ever
// entered is a conservation violation (bytes were duplicated or
// fabricated somewhere between the endpoints).
func (l *Ledger) Out(n int64) {
	if n < 0 {
		l.chk.Failf("ledger", "%s: negative outflow %d", l.name, n)
		return
	}
	l.out += n
	if l.out > l.in {
		l.chk.Failf("ledger", "%s: delivered %d units but only %d entered (duplication)",
			l.name, l.out, l.in)
	}
}

// InFlight returns units currently inside the account.
//
//ioatlint:allow deadapi — read by the root integration test and internal/tcp's transfer and fuzz tests
func (l *Ledger) InFlight() int64 { return l.in - l.out }
