package msg

import "ioatsim/internal/sim"

// Task returns the driving task.
func (a *Async) Task() *sim.Task { return a.tx.Task() }
