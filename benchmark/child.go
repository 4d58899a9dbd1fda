package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/sim"
)

// options are the settings of one benchmark invocation; the parent
// passes them on to every child.
type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceDir string
	golden   string
	// smoke shrinks every workload to a tiny size (tests use it).
	smoke bool
}

// childReport is what a child process returns to the parent, as JSON on
// its standard output. A round child fills the round fields; the
// verification and ladder children fill Attempted, Failures and, for
// the ladder, Metrics.
type childReport struct {
	ReadyNS   int64    `json:"ready_ns"`
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`

	Wall    time.Duration     `json:"wall"`
	Ops     []time.Duration   `json:"ops"`     // per operation slot, in slot order
	Outputs map[string]string `json:"outputs"` // operation -> digest of its output
	// Rejected counts 429 answers.
	Rejected     int     `json:"rejected"`
	Events       uint64  `json:"events"`
	ProcSwitches uint64  `json:"proc_switches"`
	Alloc        uint64  `json:"alloc"`
	Mallocs      uint64  `json:"mallocs"`
	GCs          uint32  `json:"gcs"`
	MaxRSS       float64 `json:"max_rss"` // bytes
	PeakPending  uint64  `json:"peak_pending"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	Evictions    uint64  `json:"evictions"`
	GCCPU        float64 `json:"gc_cpu_s"`
	CPU          float64 `json:"cpu_s"`
	Profile      string  `json:"profile,omitempty"` // the round's CPU profile
	// Yardstick is the yardstick's time right after the round.
	Yardstick time.Duration `json:"yardstick"`

	Metrics map[string]metric `json:"metrics,omitempty"`
	Spans   []span            `json:"spans,omitempty"`
}

func (r *childReport) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// system is a workload made ready to run.
type system interface {
	// round performs the workload's fixed unit of work once, filling the
	// report's Wall, Ops, Outputs, Attempted, Failures and
	// Rejected; rec (nil when not tracing) receives its spans.
	round(rep *childReport, rec *recorder, parent int64)
	// cacheStats reports the point cache's lookups so far (zero where
	// the workload runs without one).
	cacheStats() (hits, misses, evictions uint64)
	close()
}

// runRoundChild runs one round of w in this fresh process. Rounds get a
// process each because a finished simulation leaves its parked Proc
// goroutines, and with them its whole cluster, reachable: rounds in one
// process would grow the heap by up to ~100 MB (datacenter) or ~190 MB
// (serve) each. With profile set, the round runs under a Go CPU profile
// written there, and its spans are recorded. The yardstick runs after
// the round, outside the profile.
func runRoundChild(w workload, o options, profile string) *childReport {
	rep := &childReport{Outputs: map[string]string{}}
	sys, err := prepare(w, o)
	rep.ReadyNS = time.Now().UnixNano()
	if err != nil {
		rep.Attempted++
		rep.fail("set-up: %v", err)
		return rep
	}
	defer sys.close()

	var rec *recorder
	stopProfile := func() {}
	if profile != "" {
		rec = &recorder{}
		rep.Profile = profile
		f, err := os.Create(profile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			rep.Attempted++
			rep.fail("cpu profile: %v", err)
			return rep
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				rep.fail("cpu profile: %v", err)
			}
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0, p0 := sim.GlobalExecuted(), sim.GlobalProcSwitches()
	gc0, cpu0 := gcCPUSeconds()
	h0, mi0, ev0 := sys.cacheStats()
	id := rec.id()
	t0 := time.Now()
	sys.round(rep, rec, id)
	rec.add(span{ID: id, Name: w.name + " round"}, t0, time.Now())
	stopProfile()
	rep.Events = sim.GlobalExecuted() - e0
	rep.ProcSwitches = sim.GlobalProcSwitches() - p0
	gc1, cpu1 := gcCPUSeconds()
	rep.GCCPU, rep.CPU = gc1-gc0, cpu1-cpu0
	h1, mi1, ev1 := sys.cacheStats()
	rep.CacheHits, rep.CacheMisses, rep.Evictions = h1-h0, mi1-mi0, ev1-ev0
	runtime.ReadMemStats(&m1)
	rep.Alloc = m1.TotalAlloc - m0.TotalAlloc
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.GCs = m1.NumGC - m0.NumGC
	rep.PeakPending = sim.GlobalPeakPending()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.MaxRSS = float64(ru.Maxrss) * 1024
	}
	if rec != nil {
		rep.Spans = rec.spans
	}
	rep.Yardstick = yardstick()
	return rep
}

// prepare generates the workload's inputs from the seed and readies the
// system under test; for serve that includes the listener and a 200 from
// /healthz.
func prepare(w workload, o options) (system, error) {
	if w.serve {
		n := serveJobsPerRound
		if o.smoke {
			n = 20
		}
		return startServe(makeServeInputs(o.seed, n))
	}
	s := &simSystem{cfg: bench.Config{Seed: o.seed, Scale: w.scale, Parallel: 1}}
	for _, id := range w.ids {
		r, ok := bench.Find(id)
		if !ok {
			return nil, fmt.Errorf("unknown figure %q", id)
		}
		s.runners = append(s.runners, r)
	}
	return s, nil
}

// gcCPUSeconds reads the runtime's estimate of GC and total CPU time.
func gcCPUSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runVerifyChild is the untimed correctness pass: each figure at the
// golden configuration must render byte-identically to its file in the
// golden directory.
func runVerifyChild(ids []string, dir string) *childReport {
	rep := &childReport{ReadyNS: time.Now().UnixNano()}
	cfg := bench.Config{Seed: 1, Scale: 0.05, Check: true}
	for _, id := range ids {
		rep.Attempted++
		r, ok := bench.Find(id)
		if !ok {
			rep.fail("golden %s: unknown figure", id)
			continue
		}
		res, err := runFigure(r, cfg)
		if err != nil {
			rep.fail("golden %s: %v", id, err)
			continue
		}
		path := filepath.Join(dir, id+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			rep.fail("golden %s: %v", id, err)
			continue
		}
		if res.String() != string(want) {
			rep.fail("golden %s: output differs from %s", id, path)
		}
	}
	return rep
}

// runFigure runs one figure, turning a panic (an invariant violation or
// a bug) into an error.
func runFigure(r bench.Runner, cfg bench.Config) (res *bench.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return r.Run(cfg), nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// simSystem runs a list of figures, as `ioatbench -parallel 1` does: no
// point cache, no checker, no observability sinks.
type simSystem struct {
	cfg     bench.Config
	runners []bench.Runner
}

// round runs each figure once. A figure's output is its rendered table
// and its simulated event count; the parent checks both against round
// 1's.
func (s *simSystem) round(rep *childReport, rec *recorder, parent int64) {
	for _, run := range s.runners {
		rep.Attempted++
		e0 := sim.GlobalExecuted()
		t0 := time.Now()
		res, err := runFigure(run, s.cfg)
		t1 := time.Now()
		rep.Ops = append(rep.Ops, t1.Sub(t0))
		rep.Wall += t1.Sub(t0)
		rec.add(span{Parent: parent, Name: run.ID}, t0, t1)
		if err != nil {
			rep.fail("%s: %v", run.ID, err)
			continue
		}
		rep.Outputs[run.ID] = fmt.Sprintf("%s events=%d", digest(res.String()), sim.GlobalExecuted()-e0)
	}
}

func (s *simSystem) cacheStats() (hits, misses, evictions uint64) { return 0, 0, 0 }

func (s *simSystem) close() {}
