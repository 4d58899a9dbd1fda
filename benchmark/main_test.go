package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the parent under test spawns its children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const goldenDir = "../testdata/golden"

// spec is the part of BENCHMARK.json the tests check.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// summary is the last line of the benchmark's standard output.
type summary struct {
	Correct   *bool             `json:"correct"`
	Attempted *int              `json:"attempted"`
	Failed    *int              `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runBenchmark(t *testing.T, args ...string) (int, summary) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s\nstderr:\n%s", err, lines[len(lines)-1], stderr.String())
	}
	if s.Correct == nil || s.Attempted == nil || s.Failed == nil || s.Metrics == nil {
		t.Fatalf("summary misses a key: %s", lines[len(lines)-1])
	}
	if code != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, s
}

// TestSmokeEveryWorkload runs every workload at its tiny size, traced,
// and checks that nothing fails and that each workload reports every
// metric BENCHMARK.json names, with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	code, s := runBenchmark(t, "--seed", "1", "--seconds", "0", "--smoke", "--trace", "1",
		"--trace-dir", dir, "--golden", goldenDir, "--out", out)
	if code != 0 || !*s.Correct || *s.Failed != 0 {
		t.Fatalf("exit %d, correct %v, failed %d", code, *s.Correct, *s.Failed)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	sp := loadSpec(t)
	if len(res.Workloads) != len(sp.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(res.Workloads), len(sp.Workloads))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
			got, ok := w.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
				t.Errorf("%s: metric %s = %+v, want a value in %s", w.Name, m.Name, got, m.Unit)
			}
		}
		for _, m := range sp.EndToEnd {
			if w.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, m.Name, w.Metrics[m.Name].Value)
			}
		}
		sum := 0.0
		for _, l := range shareLayers {
			sum += w.Metrics[l+".cpu_share"].Value
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v, want 1", w.Name, sum)
		}
	}
	if len(s.Metrics) != len(sp.PerLayer)*len(sp.Workloads) {
		t.Errorf("traced summary has %d metrics, want every per-layer metric of every workload (%d)",
			len(s.Metrics), len(sp.PerLayer)*len(sp.Workloads))
	}

	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	data, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err == nil {
		err = json.Unmarshal(data, &trace)
	}
	if err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace.json: %v, %d events", err, len(trace.TraceEvents))
	}
}

// TestTamperedGoldenFails checks the verification pass: a golden table
// that does not match the simulator's output is a failed operation and a
// non-zero exit.
func TestTamperedGoldenFails(t *testing.T) {
	dir := t.TempDir()
	want, err := os.ReadFile(filepath.Join(goldenDir, "fig10a.txt"))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(want, []byte("1"), []byte("2"), 1)
	if err := os.WriteFile(filepath.Join(dir, "fig10a.txt"), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	code, s := runBenchmark(t, "--workload", "pvfs", "--seed", "1", "--seconds", "0", "--smoke",
		"--golden", dir)
	if code == 0 || *s.Correct || *s.Failed != 1 {
		t.Fatalf("exit %d, correct %v, failed %d; want a failed run with one failed operation",
			code, *s.Correct, *s.Failed)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the code's
// metric and workload lists in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	sp := loadSpec(t)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayerDefs())
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, sp.Workloads[i].Name, w.name)
		}
	}
}
