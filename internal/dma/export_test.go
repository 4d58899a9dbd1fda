package dma

// Utilization returns the engine's busy fraction since the last
// ResetWindow.
func (e *Engine) Utilization() float64 {
	now := e.S.Now()
	if now <= e.markAt {
		return 0
	}
	busy := e.busyUpTo(now) - e.markBusy
	u := busy.Seconds() / now.Sub(e.markAt).Seconds()
	if e.chk != nil {
		e.chk.InRange("dma", "engine utilization", u, 0, 1+1e-9)
	}
	return u
}
