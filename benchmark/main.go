// Command benchmark is ioatsim's performance benchmark. It runs the
// simulator's workloads (stream, datacenter, pvfs: figure sets at fixed
// scales; serve: HTTP jobs against in-process ioatd), each in its own
// child process of this binary, times only calls into the simulator's
// public APIs, checks every output, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
// per-layer metrics: CPU shares from a Go CPU profile of a second, traced
// run, per-round counters, and the layer ladder's microbenchmarks.
//
// Usage, from the repository root (benchmark/run.sh builds and runs it):
//
//	run.sh --seed 1                              # every workload
//	run.sh --workload serve --seed 3 --seconds 30 --trace 0
//	run.sh --seed 1 --trace 1 --trace-dir out    # + out/trace.json
//	run.sh --layers                              # the layer ladder only
//	run.sh --seed 1 --out a/1.json               # keep a result file
//	run.sh --compare a b                         # compare two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const ladderName = "ladder"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	only := fs.String("workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "timed seconds per workload")
	trace := fs.Int("trace", 0, "1 = also run traced rounds and report the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes trace.json and CPU profiles")
	fs.StringVar(&o.golden, "golden", "testdata/golden", "directory of the golden tables the verification pass compares against")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to a tiny size (for tests)")
	layers := fs.Bool("layers", false, "run only the layer ladder")
	out := fs.String("out", "", "also write the result file here")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A B (files or directories)")
	child := fs.String("child", "", "internal: run one part of a workload in this process")
	verify := fs.Bool("verify", false, "internal: with -child, run the verification pass instead of a round")
	profile := fs.String("profile", "", "internal: with -child, write a CPU profile of the round here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = *trace == 1

	switch {
	case *child != "":
		var rep *childReport
		w, ok := findWorkload(*child, o.smoke)
		switch {
		case *child == ladderName:
			rep = runLadderChild(o)
		case !ok:
			fmt.Fprintf(stderr, "unknown workload %q\n", *child)
			return 2
		case *verify:
			rep = runVerifyChild(w.ids, o.golden)
		default:
			rep = runRoundChild(w, o, *profile)
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A B")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "--trace takes 0 or 1")
		return 2
	}

	var todo []workload
	switch {
	case *layers:
	case *only == "":
		for _, w := range workloads {
			w, _ = findWorkload(w.name, o.smoke)
			todo = append(todo, w)
		}
	default:
		w, ok := findWorkload(*only, o.smoke)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *only)
			return 2
		}
		todo = []workload{w}
	}
	if _, err := os.Stat(o.golden); err != nil && len(todo) > 0 {
		fmt.Fprintf(stderr, "golden tables not found (%v): run from the repository root\n", err)
		return 2
	}
	return parent(todo, o, *layers || o.traced, *out, stdout, stderr)
}

// result is one invocation's outcome, as written by -out and read by
// -compare.
type result struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	Traced      bool             `json:"traced"`
	Workloads   []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// parent runs the ladder when asked, then each workload, and prints and
// saves the results.
func parent(todo []workload, o options, ladder bool, out string, stdout, stderr io.Writer) int {
	res := result{Fingerprint: takeFingerprint(o.seed), Traced: o.traced}
	var procs []string
	var spans [][]span
	var ladderRep *childReport
	if ladder {
		c, _, err := spawn(ladderName, o, stderr)
		if err != nil {
			c = &childReport{Attempted: 1, Failures: []string{err.Error()}}
		}
		ladderRep = c
		procs, spans = append(procs, ladderName), append(spans, c.Spans)
		if len(todo) == 0 {
			res.Workloads = append(res.Workloads, workloadResult{
				Name: ladderName, Attempted: c.Attempted, Failed: len(c.Failures),
				Failures: c.Failures, Metrics: c.Metrics,
			})
		}
	}
	for _, w := range todo {
		rep := runWorkload(w, o, stderr)
		if ladderRep != nil {
			// The ladder's rungs are per-layer metrics of every workload.
			for k, v := range ladderRep.Metrics {
				rep.metrics[k] = v
			}
			rep.attempted += ladderRep.Attempted
			rep.failures = append(rep.failures, ladderRep.Failures...)
		}
		res.Workloads = append(res.Workloads, workloadResult{
			Name: w.name, Attempted: rep.attempted, Failed: len(rep.failures),
			Failures: rep.failures, Metrics: rep.metrics,
		})
		procs, spans = append(procs, w.name), append(spans, rep.spans)
	}
	if o.traced {
		if err := writeChromeTrace(o.traceDir, procs, spans); err != nil {
			fmt.Fprintf(stderr, "writing trace: %v\n", err)
			return 1
		}
	}
	if out != "" {
		if err := writeResult(out, res); err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", out, err)
			return 1
		}
	}
	return printResult(res, len(todo) == 0, o.traced, stdout, stderr)
}

// printResult prints every metric as a line, then the summary JSON line:
// the end-to-end metrics, or the per-layer ones for a traced run. With
// several workloads each name is prefixed by its workload.
func printResult(res result, ladderOnly, traced bool, stdout, stderr io.Writer) int {
	defs := endToEnd
	switch {
	case ladderOnly:
		defs = rungDefs()
	case traced:
		defs = perLayerDefs()
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, w := range res.Workloads {
		printMetrics(stdout, w.Name, w.Metrics)
		for _, f := range w.Failures {
			fmt.Fprintf(stderr, "%s: FAILED: %s\n", w.Name, f)
		}
		summary.Attempted += w.Attempted
		summary.Failed += w.Failed
		picked, err := pick(w.Metrics, defs)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.Name, err)
			summary.Failed++
			continue
		}
		for k, v := range picked {
			if len(res.Workloads) > 1 {
				k = w.Name + "." + k
			}
			summary.Metrics[k] = v
		}
	}
	summary.Attempted = max(summary.Attempted, 1)
	summary.Correct = summary.Failed == 0
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !summary.Correct {
		return 1
	}
	return 0
}

func writeResult(path string, res result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fingerprint identifies the host and build a result was measured on.
// Results compare only across equal CPU, nproc, GOMAXPROCS and Go
// version.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func takeFingerprint(seed uint64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the checked-out revision, or "unknown" outside a git
// checkout. Git may not look above the current directory.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
