package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Parent is the id of the
// enclosing span (0 at top level); the spans of one serve job share Job.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Tid     int    `json:"tid,omitempty"`
	Job     string `json:"job,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory; they are written once,
// when the benchmark ends. A nil recorder records nothing, so the plain
// run pays one nil compare per span site.
type recorder struct {
	mu     sync.Mutex
	nextID int64
	spans  []span
}

// id reserves a span id, so children can name their parent before the
// parent's own span is complete.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records the span [start, end). A zero s.ID gets a fresh id.
func (r *recorder) add(s span, start, end time.Time) {
	if r == nil {
		return
	}
	if s.ID == 0 {
		s.ID = r.id()
	}
	s.StartNS, s.EndNS = start.UnixNano(), end.UnixNano()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// chromeEvent is one Chrome trace-event record ("X" = complete event,
// "M" = metadata), the format Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every process's spans to dir/trace.json, one
// trace process per entry of procs, with times relative to the earliest
// span.
func writeChromeTrace(dir string, procs []string, spans [][]span) error {
	var t0 int64
	for _, ss := range spans {
		for _, s := range ss {
			if t0 == 0 || s.StartNS < t0 {
				t0 = s.StartNS
			}
		}
	}
	events := []chromeEvent{}
	for pid, name := range procs {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
		for _, s := range spans[pid] {
			args := map[string]any{"id": s.ID, "parent": s.Parent}
			if s.Job != "" {
				args["job"] = s.Job
			}
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Pid: pid, Tid: s.Tid,
				Ts:   float64(s.StartNS-t0) / 1e3,
				Dur:  float64(s.EndNS-s.StartNS) / 1e3,
				Args: args,
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
