package check

// Violations returns the recorded diagnostics in detection order.
func (c *Checker) Violations() []string {
	return append([]string(nil), c.violations...)
}
