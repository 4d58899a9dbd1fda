// Package metrics is the simulator's time-series layer: a registry of
// counters, gauges, time-weighted gauges and fixed-bucket histograms,
// sampled on a configurable simulated-time tick and exported as CSV or
// JSON series.
//
// Instruments live in per-cluster Scopes (every simulation point gets
// its own scope so sweeps don't mix their series); the Registry collects
// the sampled rows from all scopes, and the engine event totals each
// cluster reports when it closes.
//
// Device models never poll the registry: host registration wires gauge
// closures over device state (core busy time, port byte counters, DMA
// queue delay, cache hit counters), and the transport pushes into a
// time-weighted backlog gauge and a segment-size histogram it is handed
// at construction. With no registry installed every push site is one nil
// comparison.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"ioatsim/internal/sim"
)

// Row is one sampled point of one series.
type Row struct {
	T     sim.Time
	Name  string
	Value float64
}

// Registry owns the sampled rows of every scope and the engine event
// totals of every cluster built with it. Rows are appended under a mutex
// so a registry can outlive many sequential clusters (and stay safe if a
// sweep samples from worker goroutines).
type Registry struct {
	mu     sync.Mutex
	scopes int
	rows   []Row

	scheduled  atomic.Uint64
	dispatched atomic.Uint64
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// AddEvents adds one simulator's engine event totals: how many events
// it scheduled and how many it dispatched.
func (r *Registry) AddEvents(scheduled, dispatched uint64) {
	r.scheduled.Add(scheduled)
	r.dispatched.Add(dispatched)
}

// NewScope returns a fresh instrument scope. Each scope's series are
// prefixed "c<N>/" with N the scope's creation index, so series from
// different simulation points of one sweep stay distinguishable.
func (r *Registry) NewScope() *Scope {
	r.mu.Lock()
	n := r.scopes
	r.scopes++
	r.mu.Unlock()
	return &Scope{reg: r, prefix: fmt.Sprintf("c%d/", n)}
}

// add appends sampled rows.
func (r *Registry) add(rows []Row) {
	r.mu.Lock()
	r.rows = append(r.rows, rows...)
	r.mu.Unlock()
}

// Rows returns a copy of every sampled row in collection order.
func (r *Registry) Rows() []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Row(nil), r.rows...)
}

// WriteCSV exports the sampled rows in long form: one line per series
// per tick, `time_s,metric,value`.
func (r *Registry) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time_s,metric,value"); err != nil {
		return err
	}
	r.mu.Lock()
	rows := r.rows
	for _, row := range rows {
		fmt.Fprintf(bw, "%.9f,%s,%g\n", row.T.Seconds(), row.Name, row.Value)
	}
	r.mu.Unlock()
	return bw.Flush()
}

// WriteJSON exports the rows grouped by series, in first-seen order:
// {"series":[{"name":..., "points":[[t_s, v], ...]}, ...]}.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	order := []string{}
	byName := map[string][]Row{}
	for _, row := range r.rows {
		if _, ok := byName[row.Name]; !ok {
			order = append(order, row.Name)
		}
		byName[row.Name] = append(byName[row.Name], row)
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"events_scheduled\":%d,\"events_dispatched\":%d,\"series\":[",
		r.scheduled.Load(), r.dispatched.Load())
	for i, name := range order {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"points\":[", name)
		for j, row := range byName[name] {
			if j > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "[%.9f,%g]", row.T.Seconds(), row.Value)
		}
		bw.WriteString("]}")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// ---- instruments ----

// TimeWeighted is a gauge integrated over virtual time: Set records a
// piecewise-constant value, and each sampler tick emits the
// time-weighted mean over the elapsed window (queue depths and backlogs
// that change many times between ticks are reported faithfully instead
// of aliased).
type TimeWeighted struct {
	started  bool
	value    float64
	since    sim.Time
	winStart sim.Time
	integral float64
}

// Set records the value v as of time now (non-decreasing).
func (g *TimeWeighted) Set(now sim.Time, v float64) {
	if !g.started {
		g.started = true
		g.since, g.winStart = now, now
		g.value = v
		return
	}
	if now < g.since {
		panic(fmt.Sprintf("metrics: time-weighted gauge sampled backwards (%v after %v)", now, g.since))
	}
	g.integral += g.value * float64(now-g.since)
	g.since = now
	g.value = v
}

// SampleWindow returns the time-weighted mean since the previous sample
// (or the first Set) and starts a new window at now. A gauge that was
// never Set reports 0; a window of zero width reports the current value.
func (g *TimeWeighted) SampleWindow(now sim.Time) float64 {
	if !g.started || now < g.since {
		return 0
	}
	mean := g.value
	if now > g.winStart {
		total := g.integral + g.value*float64(now-g.since)
		mean = total / float64(now-g.winStart)
	}
	g.integral = 0
	g.since = now
	g.winStart = now
	return mean
}

// Histogram counts samples into fixed buckets split at the given upper
// bounds, with linear-interpolation quantile readout. With no bounds it
// degenerates to a single bucket spanning [min, max].
type Histogram struct {
	bounds   []float64 // ascending upper bounds; final +Inf bucket implied
	counts   []int64   // len(bounds)+1
	n        int64
	sum      float64
	min, max float64
}

// NewHistogram returns a histogram with the given ascending bucket
// upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		panic("metrics: NaN histogram sample")
	}
	if h.n == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.n++
	h.sum += v
	b := len(h.bounds)
	for i, up := range h.bounds {
		if v <= up {
			b = i
			break
		}
	}
	h.counts[b]++
}

// N returns the sample count.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the sample mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observed sample (0 if empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observed sample (0 if empty).
func (h *Histogram) Max() float64 { return h.max }

// bucketEdges returns bucket b's [lo, hi] interpolation edges, clamped
// to the observed sample range so quantiles never leave [Min, Max].
func (h *Histogram) bucketEdges(b int) (lo, hi float64) {
	lo, hi = h.min, h.max
	if b > 0 && h.bounds[b-1] > lo {
		lo = h.bounds[b-1]
	}
	if b < len(h.bounds) && h.bounds[b] < hi {
		hi = h.bounds[b]
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 < q <= 1) by linear interpolation
// within the covering bucket. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	cum := 0.0
	for b, cnt := range h.counts {
		if cnt == 0 {
			continue
		}
		prev := cum
		cum += float64(cnt)
		if cum >= target {
			lo, hi := h.bucketEdges(b)
			frac := 0.0
			if cnt > 0 {
				frac = (target - prev) / float64(cnt)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
	}
	return h.max
}
