package cpu

// UnregisterThread removes a thread registered with RegisterThread.
func (c *CPU) UnregisterThread() {
	c.threads--
	if c.threads < 0 {
		panic("cpu: thread count underflow")
	}
}

// Threads returns the registered thread count.
func (c *CPU) Threads() int { return c.threads }
