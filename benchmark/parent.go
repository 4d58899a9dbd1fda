package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// workloadReport is one workload's aggregated outcome.
type workloadReport struct {
	attempted int
	failures  []string
	metrics   map[string]metric
	spans     []span
}

func (r *workloadReport) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *workloadReport) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

// runWorkload runs timed rounds for o.seconds (half plain and half
// traced with o.traced), then the verification pass, each in its own
// child process, and derives the workload's metrics. Every round must
// reproduce the first round's outputs.
func runWorkload(w workload, o options, stderr io.Writer) *workloadReport {
	rep := &workloadReport{metrics: map[string]metric{}}
	var setups []float64
	run := func(args ...string) (*childReport, float64) {
		c, setup, err := spawn(w.name, o, stderr, args...)
		if err != nil {
			rep.attempted++
			rep.fail("%v", err)
			return nil, 0
		}
		rep.attempted += c.Attempted
		rep.failures = append(rep.failures, c.Failures...)
		return c, setup
	}
	rounds := func(budget time.Duration, profileDir string) []*childReport {
		var out []*childReport
		var took []float64
		start := time.Now()
		for {
			t0 := time.Now()
			var args []string
			if profileDir != "" {
				args = []string{"-profile", filepath.Join(profileDir, fmt.Sprintf("%s-%d.cpu.pprof", w.name, len(took)+1))}
			}
			if c, setup := run(args...); c != nil {
				out = append(out, c)
				setups = append(setups, setup)
			}
			took = append(took, time.Since(t0).Seconds())
			if time.Since(start)+time.Duration(median(took)*float64(time.Second)) > budget {
				return out
			}
		}
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		budget /= 2
	}
	plain := rounds(budget, "")
	var traced []*childReport
	if o.traced {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			rep.attempted++
			rep.fail("trace dir: %v", err)
		} else {
			traced = rounds(budget, o.traceDir)
		}
	}
	run("-verify")

	all := append(append([]*childReport(nil), plain...), traced...)
	for i, c := range all[min(1, len(all)):] {
		for op, want := range all[0].Outputs {
			if got := c.Outputs[op]; got != want {
				rep.fail("round %d: %s output %q differs from round 1's %q", i+2, op, got, want)
			}
		}
	}
	if len(plain) > 0 {
		rep.set("setup_s", median(setups), "s")
		endToEndMetrics(rep, w, plain)
	}
	if len(traced) > 0 && len(plain) > 0 {
		perLayerMetrics(rep, traced, plain)
	}
	return rep
}

// spawn runs this binary as a child for workload name and decodes its
// report. It also returns the set-up time: from just before the exec
// until the child was ready.
func spawn(name string, o options, stderr io.Writer, extra ...string) (*childReport, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-child", name,
		"-seed", fmt.Sprint(o.seed), "-golden", o.golden, "-smoke=" + fmt.Sprint(o.smoke)}, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", name, err)
	}
	var c childReport
	if err := json.Unmarshal(stdout.Bytes(), &c); err != nil {
		return nil, 0, fmt.Errorf("%s child report: %w", name, err)
	}
	return &c, float64(c.ReadyNS-start.UnixNano()) / 1e9, nil
}

// endToEndMetrics derives the end-to-end metrics but setup_s, and the
// plain run's diagnostics, from the timed rounds.
//
// Slow periods on a shared host outlast a run, and no choice among a
// run's rounds can undo them, so host times are scaled to the reference
// speed by the run's median yardstick (see yardstick). A yardstick
// measurement is noisier than the rounds; the median over the run's
// rounds is not. Shorter bursts remain, and only ever slow work down. So
// each operation slot of a round (a figure, or the i-th job of serve's
// fixed sequence) costs its fastest repetition over the rounds. A figure
// workload runs its figures one after another, so round_s is the sum of
// their slots; serve's round is one closed loop of two clients, so
// round_s is its fastest round.
//
// Serve's latency percentiles run across its 500 slots. A figure
// workload has only 3 to 10 slots, so its percentiles are one or two
// figures, and a single figure's fastest run is at the mercy of a slow
// stretch. Figures of one round share the host's state, though, so a
// figure's share of its round barely moves: a figure slot's latency is
// its median share of the rounds times round_s.
func endToEndMetrics(rep *workloadReport, w workload, rounds []*childReport) {
	var walls, yards, allocs, rss, slots, shares []float64
	best := rounds[0]
	for _, r := range rounds {
		walls = append(walls, r.Wall.Seconds())
		yards = append(yards, r.Yardstick.Seconds())
		allocs = append(allocs, float64(r.Alloc))
		rss = append(rss, r.MaxRSS)
		if r.Wall < best.Wall {
			best = r
		}
	}
	for i := range rounds[0].Ops {
		var ts, ss []float64
		for _, r := range rounds {
			if i < len(r.Ops) {
				ts = append(ts, r.Ops[i].Seconds())
				ss = append(ss, r.Ops[i].Seconds()/r.Wall.Seconds())
			}
		}
		slots = append(slots, minOf(ts))
		shares = append(shares, median(ss))
	}
	roundS := best.Wall.Seconds()
	if !w.serve {
		roundS = 0
		for _, s := range slots {
			roundS += s
		}
		for i, s := range shares {
			slots[i] = s * roundS
		}
	}
	k := refYardstick.Seconds() / median(yards)
	rep.set("round_s", roundS*k, "s")
	rep.set("events_per_s", float64(best.Events)/(roundS*k), "1/s")
	rep.set("op_p50_ms", percentile(slots, 50)*k*1e3, "ms")
	rep.set("op_p98_ms", percentile(slots, 98)*k*1e3, "ms")
	rep.set("alloc_mb", median(allocs)/1e6, "MB")
	rep.set("max_rss_mb", median(rss)/1e6, "MB")
	rep.set("rounds.p50_s", median(walls), "s")
	rep.set("rounds.max_s", percentile(walls, 100), "s")
	rep.set("rounds.yardstick_ms", median(yards)*1e3, "ms")
}

// perLayerMetrics derives the per-layer metrics from the traced rounds:
// CPU shares from their merged profiles, per-round counters, and the
// tracing overhead against the plain rounds.
func perLayerMetrics(rep *workloadReport, traced, plain []*childReport) {
	n := float64(len(traced))
	bestTraced, bestPlain := traced[0].Wall, plain[0].Wall
	var events, procSw, mallocs []float64
	var gcs, gcCPU, cpu float64
	var hits, misses, evictions, peak uint64
	var samples []profileSample
	var base int64
	for _, r := range traced {
		bestTraced = min(bestTraced, r.Wall)
		events = append(events, float64(r.Events))
		procSw = append(procSw, float64(r.ProcSwitches))
		mallocs = append(mallocs, float64(r.Mallocs))
		gcs += float64(r.GCs)
		gcCPU += r.GCCPU
		cpu += r.CPU
		hits += r.CacheHits
		misses += r.CacheMisses
		evictions += r.Evictions
		peak = max(peak, r.PeakPending)
		// Span ids are per child; shift them apart.
		var top int64
		for _, s := range r.Spans {
			top = max(top, s.ID)
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			rep.spans = append(rep.spans, s)
		}
		base += top
		data, err := os.ReadFile(r.Profile)
		var ss []profileSample
		if err == nil {
			ss, err = decodeProfile(data)
		}
		if err != nil {
			rep.fail("cpu profile: %v", err)
		}
		samples = append(samples, ss...)
	}
	rejected := 0
	for _, r := range plain {
		bestPlain = min(bestPlain, r.Wall)
		rejected += r.Rejected
	}
	for _, r := range traced {
		rejected += r.Rejected
	}
	for l, s := range layerShares(samples) {
		rep.set(l+".cpu_share", s, "ratio")
	}
	rep.set("sim.events", median(events), "count/round")
	rep.set("sim.proc_switches", median(procSw), "count/round")
	rep.set("sim.peak_pending", float64(peak), "count")
	rep.set("runtime.mallocs", median(mallocs), "count/round")
	rep.set("runtime.gc_cycles", gcs/n, "count/round")
	rep.set("runtime.gc_cpu_frac", ratio(gcCPU, cpu), "ratio")
	rep.set("sweep.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	rep.set("sweep.misses", float64(misses)/n, "count/round")
	rep.set("sweep.evictions", float64(evictions)/n, "count/round")
	rep.set("serve.rejected", float64(rejected), "count")
	rep.set("trace.overhead_frac", bestTraced.Seconds()/bestPlain.Seconds()-1, "ratio")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
