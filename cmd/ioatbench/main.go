// Command ioatbench reproduces the paper's tables and figures.
//
// Usage:
//
//	ioatbench                    # run every experiment
//	ioatbench -run fig3a,fig6    # run selected experiments
//	ioatbench -list              # list experiment ids
//	ioatbench -scale 0.25        # shorten runs (shape-preserving)
//	ioatbench -parallel 0        # auto: one worker per core (default)
//	ioatbench -parallel 1        # strictly sequential
//	ioatbench -check             # audit every run with the invariant checker
//	ioatbench -strict            # fail-fast checking (implies -check)
//	ioatbench -fault loss=0.001  # run under a fault plan (see internal/fault)
//	ioatbench -json              # machine-readable results on stdout
//	ioatbench -pointcache on     # memoize sweep points in testdata/pointcache/
//	ioatbench -pointcache mem    # memoize in-process only (also: a directory path)
//	ioatbench -trace t.json      # record a Chrome/Perfetto trace of the runs
//	ioatbench -metrics m.csv     # sample time-series metrics (.csv or .json)
//	ioatbench -profile-report    # print the simulated-CPU self-time profile
//
// Every simulation point is independent and deterministic, so -parallel
// changes wall-clock time only: the tables are byte-identical at any
// setting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/host"
	"ioatsim/internal/metrics"
	"ioatsim/internal/sim"
	"ioatsim/internal/sweep"
	"ioatsim/internal/trace"
)

// jsonResult is the machine-readable form of one experiment.
type jsonResult struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	XLabel  string    `json:"xlabel"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
	Millis  float64   `json:"wall_ms"`
}

// jsonRow is one table row: the x value, its label, and the column
// values in column order.
type jsonRow struct {
	X      float64   `json:"x"`
	Label  string    `json:"label,omitempty"`
	Values []float64 `json:"values"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Scale       float64      `json:"scale"`
	Seed        uint64       `json:"seed"`
	Parallel    int          `json:"parallel"`
	Workers     int          `json:"workers"`
	GoMaxProcs  int          `json:"go_maxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Results     []jsonResult `json:"results"`
	WallSeconds float64      `json:"wall_s"`
	CPUSeconds  float64      `json:"experiment_s"`
	Speedup     float64      `json:"speedup"`
	Events      uint64       `json:"events"`
	EventsPerS  float64      `json:"events_per_s"`
	// PeakPending is the deepest scheduler pending-event set any
	// simulation reached — the depth the scheduler's heap held.
	PeakPending uint64 `json:"peak_pending"`
	// CacheHits/CacheMisses count point-cache lookups (both zero when
	// the cache is off).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// writeArtifact creates path and streams one observability export into
// it, exiting on any error (a truncated trace is worse than no trace).
func writeArtifact(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioatbench: %v\n", err)
		os.Exit(1)
	}
	werr := write(f)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "ioatbench: writing %s: %v\n", path, werr)
		os.Exit(1)
	}
}

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment ids to run (default: all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		scale    = flag.Float64("scale", 1.0, "scale factor for run lengths and request counts")
		seed     = flag.Uint64("seed", 1, "simulation seed (0 = 1)")
		parallel = flag.Int("parallel", 0, "concurrent simulation points (0 = one per core, 1 = sequential)")
		checked  = flag.Bool("check", false, "run under the runtime invariant checker (slower; aborts on violations)")
		strict   = flag.Bool("strict", false, "fail-fast invariant checking: panic at the first violation (implies -check)")
		faultStr = flag.String("fault", "", "fault plan spec, e.g. 'loss=0.001,flap=10ms/1ms,slow=2@0.5' (see internal/fault)")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")

		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON file of the runs (forces -parallel 1)")
		traceBuf    = flag.Int("trace-buffer", trace.DefaultCapacity, "trace ring capacity in records (oldest dropped on overflow)")
		metricsOut  = flag.String("metrics", "", "write sampled time-series metrics to this file (.json for JSON, CSV otherwise; forces -parallel 1)")
		metricsTick = flag.Duration("metrics-interval", metrics.DefaultInterval, "simulated-time sampling interval for -metrics")
		profReport  = flag.Bool("profile-report", false, "print the simulated-CPU self-time profile after the runs")
		pointcache  = flag.String("pointcache", "", "point-result cache: off, mem (in-process only), on (testdata/pointcache), or a directory; IOATSIM_POINTCACHE supplies the default")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioatbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ioatbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ioatbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ioatbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		// The same table the daemon serves at GET /v1/runners.
		for _, r := range bench.Experiments() {
			fmt.Printf("%-8s %-28s %s\n", r.ID, r.Title, r.Desc)
		}
		return
	}

	// Ctrl-C (or SIGTERM) cancels the run between sweep points: in-flight
	// points finish, nothing new starts, and completed experiments still
	// print before the non-zero exit.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Observability sinks. The tracer and metrics registry record from the
	// running simulation's goroutines, so they require sequential execution
	// (which also keeps the artifacts deterministic); the profiler is
	// atomic and composes with any parallelism.
	var obs host.Observability
	if *traceOut != "" {
		obs.Trace = trace.New(*traceBuf)
	}
	if *metricsOut != "" {
		obs.Metrics = metrics.New()
		obs.MetricsInterval = *metricsTick
	}
	if *profReport {
		obs.Profile = trace.NewProfiler()
	}
	if (obs.Trace != nil || obs.Metrics != nil) && *parallel != 1 {
		fmt.Fprintln(os.Stderr, "ioatbench: -trace/-metrics force -parallel 1")
		*parallel = 1
	}

	// Point-result cache. Each sweep point is memoized under its
	// content-addressed key; with a directory, cached rows survive across
	// invocations at the same configuration and code version. The flag
	// wins over the environment so scripts can force a mode.
	var cache *sweep.PointCache
	mode := *pointcache
	if mode == "" {
		mode = os.Getenv("IOATSIM_POINTCACHE")
	}
	switch mode {
	case "", "off":
	case "mem":
		cache = sweep.NewPointCache("")
	case "on":
		cache = sweep.NewPointCache(filepath.Join("testdata", "pointcache"))
	default:
		cache = sweep.NewPointCache(mode)
	}

	// The CLI and ioatd share one validation and defaulting path.
	req := bench.Request{Seed: *seed, Scale: *scale, Parallel: *parallel,
		Check: *checked, Strict: *strict, Fault: *faultStr}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				req.Runners = append(req.Runners, id)
			}
		}
		if len(req.Runners) == 0 {
			fmt.Fprintln(os.Stderr, "ioatbench: -run selected no experiments")
			os.Exit(1)
		}
	}
	cfg, runners, err := req.Config(0)
	if err != nil {
		hint := ""
		if errors.Is(err, bench.ErrUnknownExperiment) {
			hint = " (try -list)"
		}
		fmt.Fprintf(os.Stderr, "ioatbench: %v%s\n", err, hint)
		os.Exit(1)
	}
	cfg.Obs, cfg.Cache, cfg.Ctx = obs, cache, ctx

	// Whole figures run concurrently on the same pool discipline as the
	// rows inside each figure; results print in registry order.
	type timed struct {
		res     *bench.Result
		elapsed time.Duration
	}
	start := time.Now()
	ev0 := sim.GlobalExecuted()
	all, runErr := sweep.RunCtx(ctx, cfg.Parallel, len(runners), func(i int) timed {
		t0 := time.Now()
		res, err := runners[i].RunContext(cfg)
		if err != nil {
			return timed{}
		}
		return timed{res: res, elapsed: time.Since(t0)}
	})
	wall := time.Since(start)
	results := all[:0:0]
	for _, r := range all {
		if r.res != nil {
			results = append(results, r)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "ioatbench: interrupted after %d of %d experiments\n",
			len(results), len(runners))
	}
	events := sim.GlobalExecuted() - ev0
	eventsPerS := float64(events) / wall.Seconds()

	var cum time.Duration
	for _, r := range results {
		cum += r.elapsed
	}
	speedup := 1.0
	if wall > 0 {
		speedup = cum.Seconds() / wall.Seconds()
	}

	if obs.Trace != nil {
		writeArtifact(*traceOut, obs.Trace.WriteJSON)
		fmt.Fprintf(os.Stderr, "ioatbench: trace: %d records (%d dropped) -> %s\n",
			obs.Trace.Len(), obs.Trace.Dropped(), *traceOut)
	}
	if obs.Metrics != nil {
		writer := obs.Metrics.WriteCSV
		if strings.HasSuffix(*metricsOut, ".json") {
			writer = obs.Metrics.WriteJSON
		}
		writeArtifact(*metricsOut, writer)
		fmt.Fprintf(os.Stderr, "ioatbench: metrics: %d rows -> %s\n",
			len(obs.Metrics.Rows()), *metricsOut)
	}
	if obs.Profile != nil {
		// To stderr so it composes with -json on stdout.
		fmt.Fprint(os.Stderr, obs.Profile.Report())
	}

	var cacheHits, cacheMisses uint64
	if cache != nil {
		cacheHits, cacheMisses = cache.Stats()
		where := "in-process"
		if cache.Dir() != "" {
			where = cache.Dir()
		}
		fmt.Fprintf(os.Stderr, "ioatbench: point cache: %d hits, %d misses (%s)\n",
			cacheHits, cacheMisses, where)
	}

	if *jsonOut {
		report := jsonReport{
			Scale:       cfg.Scale,
			Seed:        cfg.Seed,
			Parallel:    cfg.Parallel,
			Workers:     sweep.Workers(cfg.Parallel),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			WallSeconds: wall.Seconds(),
			CPUSeconds:  cum.Seconds(),
			Speedup:     speedup,
			Events:      events,
			EventsPerS:  eventsPerS,
			PeakPending: sim.GlobalPeakPending(),
			CacheHits:   cacheHits,
			CacheMisses: cacheMisses,
		}
		for _, r := range results {
			s := r.res.Series
			jr := jsonResult{
				ID:      r.res.ID,
				Title:   r.res.Title,
				XLabel:  s.XLabel,
				Columns: s.Columns,
				Notes:   r.res.Notes,
				Millis:  float64(r.elapsed.Microseconds()) / 1e3,
			}
			for _, p := range s.Points {
				row := jsonRow{X: p.X, Label: p.Label}
				for _, c := range s.Columns {
					row.Values = append(row.Values, p.Values[c])
				}
				jr.Rows = append(jr.Rows, row)
			}
			report.Results = append(report.Results, jr)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "ioatbench: %v\n", err)
			os.Exit(1)
		}
		if runErr != nil {
			os.Exit(130)
		}
		return
	}

	for _, r := range results {
		fmt.Println(r.res.String())
		fmt.Printf("(%s ran in %v)\n\n", r.res.ID, r.elapsed.Round(time.Millisecond))
	}
	fmt.Printf("total: %d experiments, %.1fs of experiment time in %.1fs wall (%.1fx, %d workers)\n",
		len(results), cum.Seconds(), wall.Seconds(), speedup, sweep.Workers(cfg.Parallel))
	fmt.Printf("events: %d dispatched, %.2fM events/s\n", events, eventsPerS/1e6)
	if runErr != nil {
		os.Exit(130)
	}
}
