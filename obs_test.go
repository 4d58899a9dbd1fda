package ioatsim

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/host"
	"ioatsim/internal/metrics"
	"ioatsim/internal/trace"
)

// TestTraceDisabledByteIdentity proves the observability subsystem's
// core contract: with no tracer, profiler or metrics registry installed,
// every experiment's rendered table is byte-identical to the seed golden
// corpus. The instrumented sites must be pure observers behind one nil
// compare — any timing or RNG perturbation shows up here as a diff.
func TestTraceDisabledByteIdentity(t *testing.T) {
	cfg := bench.Config{Seed: 1, Scale: 0.05, Parallel: 1}
	for _, r := range bench.Experiments() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			got := r.Run(cfg).String()
			want, err := os.ReadFile(goldenPath(r.ID))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if got != string(want) {
				t.Errorf("%s with observability disabled diverges from the golden corpus:\n%s",
					r.ID, diffLines(string(want), got))
			}
		})
	}
}

// obsConfig returns a sequential config with every sink installed.
func obsConfig() (bench.Config, host.Observability) {
	obs := host.Observability{
		Trace:   trace.New(0),
		Profile: trace.NewProfiler(),
		Metrics: metrics.New(),
	}
	return bench.Config{Seed: 1, Scale: 0.05, Parallel: 1, Check: true, Obs: obs}, obs
}

// TestObservabilityComposesWithCheck runs representative experiments
// from each family (micro, data-center, PVFS) with the invariant checker
// AND all three observability sinks installed. Of the four, only the
// checker is a sim.Probe; host hands the tracer and the profiler to
// every device and registers the metrics registry's gauges over them.
// The tables must still be byte-identical to the golden corpus, and
// every sink must actually have recorded something.
func TestObservabilityComposesWithCheck(t *testing.T) {
	for _, id := range []string{"fig6", "fig3a", "fig8a", "fig10a"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, ok := bench.Find(id)
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			cfg, obs := obsConfig()
			got := r.Run(cfg).String()
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if got != string(want) {
				t.Errorf("%s under check+trace+profile+metrics diverges from the golden corpus:\n%s",
					id, diffLines(string(want), got))
			}
			if obs.Trace.Len() == 0 {
				t.Error("tracer recorded no events")
			}
			if obs.Profile.CPUTotal() <= 0 {
				t.Error("profiler attributed no CPU time")
			}
			if len(obs.Metrics.Rows()) == 0 {
				t.Error("metrics registry sampled no rows")
			}
			if rep := obs.Profile.Report(); len(rep) == 0 {
				t.Error("empty profile report")
			}
		})
	}
}

// chromeEvent is the Chrome trace-event schema subset the tracer emits.
type chromeEvent struct {
	Ph   string  `json:"ph"`
	Name string  `json:"name"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	S    string  `json:"s"`
	Args map[string]any
}

// chromeTrace is the exported document shape.
type chromeTrace struct {
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
	TraceEvents     []chromeEvent  `json:"traceEvents"`
}

// TestTraceExportSchema round-trips an exported trace through
// encoding/json into the Chrome trace-event schema and checks the
// structural invariants a viewer relies on: known phases, non-negative
// timestamps and durations, metadata naming every referenced process,
// and per-(pid,tid) span-start monotonicity. It also validates the
// metrics CSV parses and carries numeric values.
func TestTraceExportSchema(t *testing.T) {
	r, _ := bench.Find("fig3a")
	cfg, obs := obsConfig()
	r.Run(cfg)

	var buf bytes.Buffer
	if err := obs.Trace.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	namedPids := map[int]bool{}
	lastSpanStart := map[[2]int]float64{}
	spans, instants := 0, 0
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				namedPids[ev.Pid] = true
			}
		case "X":
			spans++
			if ev.Dur < 0 {
				t.Fatalf("event %d: negative duration %v", i, ev.Dur)
			}
			key := [2]int{ev.Pid, ev.Tid}
			if ev.Ts < lastSpanStart[key] {
				t.Fatalf("event %d: span start %v before previous %v on pid %d tid %d",
					i, ev.Ts, lastSpanStart[key], ev.Pid, ev.Tid)
			}
			lastSpanStart[key] = ev.Ts
		case "i":
			instants++
			if ev.S != "t" {
				t.Fatalf("event %d: instant scope %q, want \"t\"", i, ev.S)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Fatalf("event %d: negative timestamp %v", i, ev.Ts)
		}
		if ev.Ph != "M" && !namedPids[ev.Pid] {
			t.Fatalf("event %d: pid %d has no process_name metadata", i, ev.Pid)
		}
	}
	if spans == 0 || instants == 0 {
		t.Fatalf("want both spans and instants, got %d spans %d instants", spans, instants)
	}

	buf.Reset()
	if err := obs.Metrics.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("metrics CSV does not parse: %v", err)
	}
	if len(recs) < 2 {
		t.Fatalf("metrics CSV has %d rows, want header + data", len(recs))
	}
	if want := []string{"time_s", "metric", "value"}; fmt.Sprint(recs[0]) != fmt.Sprint(want) {
		t.Fatalf("CSV header %v, want %v", recs[0], want)
	}
	// Each sweep point is a fresh cluster with its own virtual clock (and
	// its own c<N>/ scope prefix), so timestamps are monotone per scope,
	// not globally.
	lastT := map[string]float64{}
	for i, rec := range recs[1:] {
		ts, err := strconv.ParseFloat(rec[0], 64)
		if err != nil || ts < 0 {
			t.Fatalf("row %d: bad timestamp %q (%v)", i+1, rec[0], err)
		}
		scope, _, ok := strings.Cut(rec[1], "/")
		if !ok {
			t.Fatalf("row %d: metric %q has no scope prefix", i+1, rec[1])
		}
		if ts < lastT[scope] {
			t.Fatalf("row %d: timestamp %v before previous %v in scope %s",
				i+1, ts, lastT[scope], scope)
		}
		lastT[scope] = ts
		if _, err := strconv.ParseFloat(rec[2], 64); err != nil {
			t.Fatalf("row %d: non-numeric value %q", i+1, rec[2])
		}
	}

	// The JSON form must parse too.
	buf.Reset()
	if err := obs.Metrics.WriteJSON(&buf); err != nil {
		t.Fatalf("metrics WriteJSON: %v", err)
	}
	var mdoc struct {
		Series []struct {
			Name   string       `json:"name"`
			Points [][2]float64 `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &mdoc); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if len(mdoc.Series) == 0 {
		t.Fatal("metrics JSON has no series")
	}
}

// TestMetricsEventTotals pins the registry's JSON header, the engine
// event totals each cluster adds when it closes: fig3a at the golden
// configuration schedules 8033 events and dispatches 7853 of them.
func TestMetricsEventTotals(t *testing.T) {
	r, _ := bench.Find("fig3a")
	reg := metrics.New()
	r.Run(bench.Config{Seed: 1, Scale: 0.05, Parallel: 1, Obs: host.Observability{Metrics: reg}})
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var head struct {
		Scheduled  uint64 `json:"events_scheduled"`
		Dispatched uint64 `json:"events_dispatched"`
	}
	if err := json.Unmarshal(buf.Bytes(), &head); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if head.Scheduled != 8033 || head.Dispatched != 7853 {
		t.Fatalf("events_scheduled %d, events_dispatched %d; want 8033 and 7853",
			head.Scheduled, head.Dispatched)
	}
}

// TestTraceSmoke is the make trace-smoke entry point: a tiny traced run
// whose artifacts must be non-empty and well-formed.
func TestTraceSmoke(t *testing.T) {
	r, _ := bench.Find("fig6")
	cfg, obs := obsConfig()
	cfg.Obs.MetricsInterval = 500 * time.Microsecond
	r.Run(cfg)
	var buf bytes.Buffer
	if err := obs.Trace.WriteJSON(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("trace export: %d bytes, err %v", buf.Len(), err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace export is not valid JSON")
	}
	buf.Reset()
	if err := obs.Metrics.WriteCSV(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("metrics export: %d bytes, err %v", buf.Len(), err)
	}
}
