package check

// Events reports how many dispatches the checker has observed.
func (c *Checker) Events() uint64 { return c.events }

// Violations returns the recorded diagnostics in detection order.
func (c *Checker) Violations() []string {
	return append([]string(nil), c.violations...)
}
