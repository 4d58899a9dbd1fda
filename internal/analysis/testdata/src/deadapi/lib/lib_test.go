package deadlib

import "testing"

func TestUses(t *testing.T) {
	TestOnly()
	testOnly()
	Kept()
	_ = Spare
}
