package metrics

import (
	"time"

	"ioatsim/internal/sim"
)

// sampleFn emits zero or more rows for one tick. now is the tick time
// and dt the window since the previous tick.
type sampleFn func(now sim.Time, dt time.Duration, emit func(name string, v float64))

// Scope is one cluster's instrument set. Registration is constructor
// time only; each sampler tick walks the registered instruments and
// appends their rows to the owning registry. A scope is not safe for
// concurrent registration with sampling, which the single-threaded event
// loop guarantees.
type Scope struct {
	reg      *Registry
	prefix   string
	samplers []sampleFn
}

// name applies the scope prefix.
func (sc *Scope) name(n string) string { return sc.prefix + n }

// GaugeFunc samples fn as an instantaneous value every tick.
func (sc *Scope) GaugeFunc(name string, fn func() float64) {
	full := sc.name(name)
	sc.samplers = append(sc.samplers, func(now sim.Time, dt time.Duration, emit func(string, float64)) {
		emit(full, fn())
	})
}

// CounterFunc samples fn as a cumulative total and emits its per-second
// rate over each tick window. The first window is measured from the
// sampler's start value, so rates are meaningful from the first row.
func (sc *Scope) CounterFunc(name string, fn func() float64) {
	full := sc.name(name)
	var prev float64
	var primed bool
	sc.samplers = append(sc.samplers, func(now sim.Time, dt time.Duration, emit func(string, float64)) {
		cur := fn()
		if !primed {
			primed = true
			prev = 0
		}
		if dt > 0 {
			emit(full, (cur-prev)/dt.Seconds())
		}
		prev = cur
	})
}

// RatioFunc emits num-delta / den-delta per tick window (a windowed hit
// ratio, not a cumulative one). Windows where the denominator did not
// move emit no row — an idle cache has no hit ratio.
func (sc *Scope) RatioFunc(name string, num, den func() float64) {
	full := sc.name(name)
	var pn, pd float64
	sc.samplers = append(sc.samplers, func(now sim.Time, dt time.Duration, emit func(string, float64)) {
		n, d := num(), den()
		if dd := d - pd; dd > 0 {
			emit(full, (n-pn)/dd)
		}
		pn, pd = n, d
	})
}

// TimeWeighted registers a time-weighted gauge; the sampler emits the
// window mean each tick.
func (sc *Scope) TimeWeighted(name string) *TimeWeighted {
	g := &TimeWeighted{}
	full := sc.name(name)
	sc.samplers = append(sc.samplers, func(now sim.Time, dt time.Duration, emit func(string, float64)) {
		emit(full, g.SampleWindow(now))
	})
	return g
}

// HistogramInstrument registers a histogram; the sampler emits the
// cumulative count plus mean/p50/p99 (rows appear once the histogram has
// samples).
func (sc *Scope) HistogramInstrument(name string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	full := sc.name(name)
	sc.samplers = append(sc.samplers, func(now sim.Time, dt time.Duration, emit func(string, float64)) {
		if h.n == 0 {
			return
		}
		emit(full+".count", float64(h.n))
		emit(full+".mean", h.Mean())
		emit(full+".p50", h.Quantile(0.50))
		emit(full+".p99", h.Quantile(0.99))
	})
	return h
}

// Sample runs every registered instrument once at time now with window
// dt and appends the rows to the registry.
func (sc *Scope) Sample(now sim.Time, dt time.Duration) {
	if len(sc.samplers) == 0 {
		return
	}
	rows := make([]Row, 0, len(sc.samplers))
	emit := func(name string, v float64) {
		rows = append(rows, Row{T: now, Name: name, Value: v})
	}
	for _, f := range sc.samplers {
		f(now, dt, emit)
	}
	sc.reg.add(rows)
}

// DefaultInterval is the sampling tick StartSampler picks for
// non-positive intervals: fine enough to resolve the multi-millisecond
// phases of the paper's workloads without swamping the event heap.
const DefaultInterval = time.Millisecond

// StartSampler schedules a periodic sampling tick on the simulator. The
// tick reschedules itself only while other events remain pending, so a
// sampled run still terminates: the sampler observes the workload's
// lifetime instead of extending it forever.
func (sc *Scope) StartSampler(s *sim.Simulator, every time.Duration) {
	if every <= 0 {
		every = DefaultInterval
	}
	last := s.Now()
	var tick func()
	tick = func() {
		now := s.Now()
		sc.Sample(now, now.Sub(last))
		last = now
		if s.Pending() > 0 {
			s.Schedule(every, tick)
		}
	}
	s.Schedule(every, tick)
}
