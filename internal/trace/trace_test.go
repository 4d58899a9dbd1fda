package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ioatsim/internal/sim"
)

func TestSiteNamesComplete(t *testing.T) {
	for s := Site(0); s < numSites; s++ {
		if s.String() == "" || strings.HasPrefix(s.String(), "site") {
			t.Errorf("site %d has no name", s)
		}
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 7; i++ {
		tr.Instant(1, 1, SiteNICRx, sim.Time(i), int64(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	var args []int64
	tr.ordered(func(r *record) { args = append(args, r.arg) })
	for i, a := range args {
		if want := int64(i + 3); a != want {
			t.Fatalf("record %d: arg %d, want %d (oldest records must be dropped)", i, a, want)
		}
	}
}

func TestObsNilWithoutSinks(t *testing.T) {
	if o := NewObs(sim.New(), nil, nil, "n"); o != nil {
		t.Fatalf("NewObs without sinks = %+v, want nil", o)
	}
}

func TestProcRunRecorded(t *testing.T) {
	tr := New(16)
	s := sim.New(sim.WithProcProbe(tr))
	w := s.NewTask("worker")
	w.Start(func() {
		w.OnWake(func() {})
		w.WakeAfter(time.Microsecond)
	})
	s.Run()
	found := 0
	tr.ordered(func(r *record) {
		if r.site == SiteProcRun && r.str == "worker" {
			found++
		}
	})
	if found != 2 { // start + wake-up
		t.Fatalf("recorded %d proc-run instants for worker, want 2", found)
	}
}

func TestWriteJSONValid(t *testing.T) {
	tr := New(16)
	pid := tr.RegisterNode("node1")
	tr.Span(pid, TidCore(0), SiteSoftirq, 1000, 500*time.Nanosecond, 7)
	tr.Instant(pid, TidNIC, SiteNICRx, 2000, 1500)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 1 process meta for sim + 1 for node1, 2 thread metas, 2 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6:\n%s", len(doc.TraceEvents), buf.String())
	}
}

func TestProfilerReport(t *testing.T) {
	p := NewProfiler()
	p.Add(SiteSoftirq, 3*time.Millisecond)
	p.Add(SiteRecvCopy, time.Millisecond)
	p.Add(SiteCopyMiss, 600*time.Microsecond)
	if got := p.CPUTotal(); got != 4*time.Millisecond {
		t.Fatalf("CPUTotal = %v, want 4ms (detail sites must not add)", got)
	}
	rep := p.Report()
	iSoft := strings.Index(rep, "softirq")
	iCopy := strings.Index(rep, "recv-copy")
	iDetail := strings.Index(rep, "copy-miss")
	if iSoft < 0 || iCopy < 0 || iDetail < 0 {
		t.Fatalf("report missing sites:\n%s", rep)
	}
	if !(iSoft < iCopy && iCopy < iDetail) {
		t.Fatalf("report not sorted (softirq, recv-copy, then detail):\n%s", rep)
	}
}
