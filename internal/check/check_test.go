package check

import (
	"math"
	"strings"
	"testing"

	"ioatsim/internal/sim"
)

func TestEventProbes(t *testing.T) {
	c := New()
	s := sim.New(sim.WithProbe(c))
	var order []sim.Time
	s.At(sim.Time(20), func() { order = append(order, sim.Time(20)) })
	s.At(sim.Time(10), func() { order = append(order, sim.Time(10)) })
	s.Run()
	if c.Events() != 2 {
		t.Errorf("observed %d dispatches, want 2", c.Events())
	}
	c.Finish()
	if err := c.Err(); err != nil {
		t.Errorf("clean run reported violations: %v", err)
	}
}

func TestDispatchMonotonicity(t *testing.T) {
	c := New()
	c.EventDispatched(100)
	c.EventDispatched(50)
	if len(c.Violations()) != 1 {
		t.Fatalf("backwards dispatch recorded %d violations, want 1", len(c.Violations()))
	}
}

func TestScheduleIntoPast(t *testing.T) {
	c := New()
	c.EventScheduled(100, 99)
	if len(c.Violations()) != 1 {
		t.Fatalf("past scheduling recorded %d violations, want 1", len(c.Violations()))
	}
}

func TestLedgerConservation(t *testing.T) {
	c := New()
	l := c.Ledger("bytes")
	l.In(100)
	l.Out(60)
	if l.InFlight() != 40 {
		t.Errorf("in-flight = %d, want 40", l.InFlight())
	}
	c.Finish()
	if err := c.Err(); err != nil {
		t.Errorf("balanced ledger reported violations: %v", err)
	}
}

func TestLedgerDuplicationDetected(t *testing.T) {
	c := New()
	l := c.Ledger("bytes")
	l.In(10)
	l.Out(11)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "duplication") {
		t.Errorf("over-delivery not flagged as duplication: %v", err)
	}
}

func TestLedgerNegativeFlows(t *testing.T) {
	c := New()
	l := c.Ledger("bytes")
	l.In(-1)
	l.Out(-1)
	if n := len(c.Violations()); n != 2 {
		t.Errorf("negative flows recorded %d violations, want 2", n)
	}
}

func TestLedgerSharedAcrossCallers(t *testing.T) {
	c := New()
	if c.Ledger("x") != c.Ledger("x") {
		t.Error("same name returned different ledgers")
	}
}

func TestInRange(t *testing.T) {
	c := New()
	c.InRange("cpu", "utilization", 0.5, 0, 1)
	if len(c.Violations()) != 0 {
		t.Errorf("in-range value flagged: %v", c.Violations())
	}
	c.InRange("cpu", "utilization", 1.5, 0, 1)
	c.InRange("cpu", "utilization", math.NaN(), 0, 1)
	if n := len(c.Violations()); n != 2 {
		t.Errorf("out-of-range and NaN recorded %d violations, want 2", n)
	}
}

func TestStrictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("strict checker did not panic")
		}
	}()
	c := New()
	c.Strict = true
	c.Failf("test", "boom")
}

func TestViolationCap(t *testing.T) {
	c := New()
	for i := 0; i < maxViolations+10; i++ {
		c.Failf("test", "violation %d", i)
	}
	if n := len(c.Violations()); n != maxViolations {
		t.Errorf("recorded %d diagnostics, want cap %d", n, maxViolations)
	}
	if err := c.Err(); !strings.Contains(err.Error(), "10 more") {
		t.Errorf("dropped count missing from summary: %v", err)
	}
}

func TestFinishRunsAuditsOnce(t *testing.T) {
	c := New()
	runs := 0
	c.OnFinish(func(*Checker) { runs++ })
	c.Finish()
	c.Finish()
	if runs != 1 {
		t.Errorf("final audit ran %d times, want 1", runs)
	}
}
