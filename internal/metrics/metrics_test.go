package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"ioatsim/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10, 20)
	if h.N() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros everywhere")
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	// No bounds: one bucket interpolating [min, max].
	h := NewHistogram()
	for _, v := range []float64{10, 20, 30, 40} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); !almost(got, 25) {
		t.Fatalf("p50 = %v, want 25 (linear within [10,40])", got)
	}
	if got := h.Quantile(1); !almost(got, 40) {
		t.Fatalf("p100 = %v, want max 40", got)
	}
	if got := h.Quantile(0); !almost(got, 10) {
		t.Fatalf("p0 = %v, want min 10", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	samples := []float64{5, 10, 11, 99, 100, 500, 5000}
	for _, v := range samples {
		h.Observe(v)
	}
	want := []int64{2, 3, 1, 1} // (<=10)x2, (10,100]x3, (100,1000]x1, overflow x1
	for i, c := range h.counts {
		if c != want[i] {
			t.Fatalf("bucket %d count %d, want %d", i, c, want[i])
		}
	}
	if h.N() != int64(len(samples)) {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Mean(); !almost(got, 5725.0/7) {
		t.Fatalf("mean = %v", got)
	}
	if got, wantMax := h.Quantile(1), 5000.0; !almost(got, wantMax) {
		t.Fatalf("p100 = %v, want %v", got, wantMax)
	}
	// Quantiles never leave the observed range even in the overflow bucket.
	if got := h.Quantile(0.99); got > 5000 || got < 5 {
		t.Fatalf("p99 = %v outside observed range", got)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); !almost(got, 42) {
			t.Fatalf("q%v = %v, want 42", q, got)
		}
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic")
		}
	}()
	NewHistogram(10, 10)
}

func TestTimeWeightedWindowMean(t *testing.T) {
	var g TimeWeighted
	// Never set: zero.
	if got := g.SampleWindow(sim.Time(1000)); got != 0 {
		t.Fatalf("unset gauge sampled %v, want 0", got)
	}
	g.Set(sim.Time(0), 10)
	g.Set(sim.Time(400), 20) // 10 for 400ns
	g.Set(sim.Time(800), 0)  // 20 for 400ns
	// 0 for 200ns: mean over [0,1000) = (10*400 + 20*400 + 0*200)/1000 = 12.
	if got := g.SampleWindow(sim.Time(1000)); !almost(got, 12) {
		t.Fatalf("window mean = %v, want 12", got)
	}
	// Second window starts fresh: constant 0 since last Set.
	if got := g.SampleWindow(sim.Time(2000)); !almost(got, 0) {
		t.Fatalf("second window mean = %v, want 0", got)
	}
	// Zero-width window reports the current value.
	g.Set(sim.Time(2000), 7)
	if got := g.SampleWindow(sim.Time(2000)); !almost(got, 7) {
		t.Fatalf("zero-width window = %v, want 7", got)
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var g TimeWeighted
	g.Set(sim.Time(1000), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Set must panic")
		}
	}()
	g.Set(sim.Time(500), 2)
}

func TestSamplerRatesAndTermination(t *testing.T) {
	s := sim.New()
	reg := New()
	sc := reg.NewScope()

	var bytes float64
	sc.CounterFunc("bytes_per_s", func() float64 { return bytes })
	sc.GaugeFunc("depth", func() float64 { return 3 })
	tw := sc.TimeWeighted("queue")

	// Workload: 1000 "bytes" per 100us for 1ms, then stop.
	var step func()
	n := 0
	step = func() {
		bytes += 1000
		tw.Set(s.Now(), float64(n%2))
		if n++; n < 10 {
			s.Schedule(100*time.Microsecond, step)
		}
	}
	s.Schedule(100*time.Microsecond, step)
	sc.StartSampler(s, 500*time.Microsecond)
	end := s.Run()

	// The sampler must not run the clock forever once the workload drains.
	if end > sim.Time(2*time.Millisecond) {
		t.Fatalf("sampler extended the run to %v", end)
	}
	rows := reg.Rows()
	if len(rows) == 0 {
		t.Fatal("no rows sampled")
	}
	byName := map[string][]Row{}
	for _, r := range rows {
		byName[r.Name] = append(byName[r.Name], r)
	}
	rates := byName["c0/bytes_per_s"]
	if len(rates) < 2 {
		t.Fatalf("got %d rate samples", len(rates))
	}
	// Steps at 100..400us land before the 500us tick (the same-time step
	// was scheduled later, so the tick samples first): 4000 per 500us.
	if got := rates[0].Value; !almost(got, 8e6) {
		t.Fatalf("first-window rate = %v, want 8e6", got)
	}
	for _, r := range byName["c0/depth"] {
		if r.Value != 3 {
			t.Fatalf("gauge sampled %v, want 3", r.Value)
		}
	}
	// Time-weighted mean of alternating 0/1 per 100us windows: within [0,1].
	for _, r := range byName["c0/queue"] {
		if r.Value < 0 || r.Value > 1 {
			t.Fatalf("time-weighted sample %v outside [0,1]", r.Value)
		}
	}
}

func TestRatioFuncSkipsIdleWindows(t *testing.T) {
	s := sim.New()
	reg := New()
	sc := reg.NewScope()
	var num, den float64
	sc.RatioFunc("hit_ratio", func() float64 { return num }, func() float64 { return den })
	// Window 1: 3 hits of 4 accesses. Window 2: idle. Window 3: 1 of 2.
	s.Schedule(100*time.Microsecond, func() { num, den = 3, 4 })
	s.Schedule(1100*time.Microsecond, func() {})
	s.Schedule(2100*time.Microsecond, func() { num, den = 4, 6 })
	sc.StartSampler(s, time.Millisecond)
	s.Run()
	rows := reg.Rows()
	if len(rows) != 2 {
		t.Fatalf("got %d ratio rows, want 2 (idle window must emit none): %+v", len(rows), rows)
	}
	if !almost(rows[0].Value, 0.75) || !almost(rows[1].Value, 0.5) {
		t.Fatalf("ratios %v and %v, want 0.75 and 0.5", rows[0].Value, rows[1].Value)
	}
}

func TestRegistryExports(t *testing.T) {
	reg := New()
	sc := reg.NewScope()
	sc.GaugeFunc("g", func() float64 { return 1.5 })
	sc.Sample(sim.Time(1000), time.Microsecond)

	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,metric,value\n") || !strings.Contains(out, "c0/g,1.5") {
		t.Fatalf("CSV:\n%s", out)
	}
	buf.Reset()
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
}
