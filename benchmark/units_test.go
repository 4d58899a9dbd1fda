package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"ioatsim/internal/mem"
)

func TestServeInputs(t *testing.T) {
	a, b := makeServeInputs(7, 300), makeServeInputs(7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	bodies := func(in serveInputs) []string {
		var out []string
		for _, j := range in.jobs {
			out = append(out, in.catalogue[j].body())
		}
		return out
	}
	c := makeServeInputs(8, 300)
	if reflect.DeepEqual(bodies(a), bodies(c)) {
		t.Fatal("another seed gave the same job sequence")
	}
	if !reflect.DeepEqual(a.jobs, c.jobs) {
		t.Fatal("another seed changed the popularity ranks or their order")
	}
	if len(a.catalogue) != len(serveRunners)*catalogueSeeds {
		t.Fatalf("catalogue has %d entries", len(a.catalogue))
	}
	seen := map[catalogueEntry]bool{}
	for k, e := range a.catalogue {
		if seen[e] {
			t.Fatalf("duplicate catalogue entry %+v", e)
		}
		seen[e] = true
		if e.Runner != serveRunners[k%len(serveRunners)] {
			t.Fatalf("rank %d is %s: ranks must go round-robin over the runners", k, e.Runner)
		}
	}
	// Zipf: the most popular entry is drawn far more often than the
	// median one, and the order is shuffled, not sorted by rank.
	count := map[int]int{}
	for _, j := range a.jobs {
		count[j]++
	}
	if count[0] < 10*count[50] {
		t.Fatalf("rank 0 drawn %d times, rank 50 %d: not Zipf-shaped", count[0], count[50])
	}
	if sort.IntsAreSorted(a.jobs) {
		t.Fatal("jobs arrive in rank order")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {100, 5}, {99, 4.96}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("median of {1, 2} = %v", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestEndToEndEstimators checks how rounds become metrics. Host times
// scale by the run's median yardstick, so a slow host period does not
// move them. A figure slot counts at its median share of a round times
// round_s, so neither a uniformly slow round nor a burst on one figure
// moves it either.
func TestEndToEndEstimators(t *testing.T) {
	// round makes a round whose yardstick ran yard times refYardstick.
	round := func(yard, wall float64, ops ...float64) *childReport {
		r := &childReport{
			Wall:      time.Duration(wall * float64(time.Second)),
			Yardstick: time.Duration(yard * float64(refYardstick)),
			Events:    600,
		}
		for _, o := range ops {
			r.Ops = append(r.Ops, time.Duration(o*float64(time.Second)))
		}
		return r
	}
	for _, c := range []struct {
		w                    workload
		rounds               []*childReport
		roundS, p50ms, p98ms float64
	}{
		{workload{name: "figures"}, []*childReport{
			round(1, 6, 1, 2, 3),
			round(1, 12, 2, 4, 6), // every figure twice as slow
			round(1, 9, 1, 5, 3),  // a burst on the second figure
		}, 6, 2000, 2960},
		{workload{name: "figures in a slow host period"}, []*childReport{
			round(2, 12, 2, 4, 6),
			round(2, 24, 4, 8, 12),
			round(2, 14, 2, 6, 6),
		}, 6, 2000, 2960},
		// Median shares 1/4, 3/8 and 3/7 of round_s = 1+2+3 s.
		{workload{name: "figures, fastest runs in different rounds"}, []*childReport{
			round(1, 7, 1, 3, 3),
			round(1, 8, 2, 2, 4),
			round(1, 8, 2, 3, 3),
		}, 6, 2250, 2558.571428571},
		// Serve's round is a closed loop of two clients: its round_s is
		// the fastest wall, and a slot counts at its fastest job.
		{workload{name: "serve", serve: true}, []*childReport{
			round(1, 3, 1, 2, 3),
			round(1, 5, 2, 4, 6),
			round(2, 8, 2, 10, 6),
		}, 3, 2000, 2960},
	} {
		rep := &workloadReport{metrics: map[string]metric{}}
		endToEndMetrics(rep, c.w, c.rounds)
		for name, want := range map[string]float64{
			"round_s": c.roundS, "events_per_s": 600 / c.roundS, "op_p50_ms": c.p50ms, "op_p98_ms": c.p98ms,
		} {
			if got := rep.metrics[name].Value; math.Abs(got-want) > 1e-6*want {
				t.Errorf("%s: %s = %v, want %v", c.w.name, name, got, want)
			}
		}
	}
}

func TestLayerShares(t *testing.T) {
	samples := []profileSample{
		{stack: []string{"ioatsim/internal/mem.(*Cache).AccessRange", "ioatsim/internal/tcp.(*Sender).step"}, count: 4},
		{stack: []string{"crypto/sha256.block", "ioatsim/internal/sweep.Key"}, count: 2},
		{stack: []string{"runtime.mallocgc", "main.main"}, count: 1},
		{stack: []string{"ioatsim/internal/check.(*Checker).Assert"}, count: 1},
		{stack: []string{"ioatsim/internal/sweep.CachedRunCtx[...].func1"}, count: 2},
	}
	got := layerShares(samples)
	want := map[string]float64{"mem": 0.4, "sweep": 0.4, "runtime": 0.1, "other": 0.1}
	sum := 0.0
	for l, v := range got {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, v, want[l])
		}
	}
	if len(got) != len(shareLayers) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d shares summing to %v, want all %d layers summing to 1", len(got), sum, len(shareLayers))
	}
}

// TestDecodeProfile decodes a real CPU profile of a mem-bound loop.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	c := mem.NewCache(2<<20, 64, 8)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			c.AccessRange(mem.Addr(i%128)<<16, 64<<10)
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	shares := layerShares(samples)
	for l, s := range shares {
		if l != "mem" && l != "runtime" && s > 0 {
			t.Errorf("%s share %v of a loop over Cache.AccessRange", l, s)
		}
	}
	if shares["mem"] < 0.2 {
		t.Errorf("mem share %v of a loop over Cache.AccessRange", shares["mem"])
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded without an error")
	}
}

func TestJudge(t *testing.T) {
	times := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10}
	scaled := func(f float64) []float64 { return times(base, f) }
	noisy := []float64{8, 12, 9, 11, 10, 13, 7, 10, 12, 8}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same", base, base, true, "within bound"},
		{"faster", base, scaled(0.9), true, "improved"},
		{"slower", base, scaled(1.2), true, "regressed"},
		{"slightly slower", base, scaled(1.03), true, "within bound"},
		{"higher is better", base, scaled(0.8), false, "regressed"},
		{"noisy", base, noisy, true, "unresolved"},
		{"noisy but all faster", noisy, scaled(0.5), true, "improved"},
		{"noisy and all 2x slower", noisy, times(noisy, 2), true, "regressed"},
		{"noisy and all half the rate", noisy, times(noisy, 0.5), false, "regressed"},
	} {
		if got := judge(c.a, c.b, c.lowerBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	fp := fingerprint{CPU: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.22"}
	write := func(set string, seed uint64, roundS float64, f fingerprint) {
		f.Seed = seed
		ms := map[string]metric{}
		for _, m := range endToEnd {
			ms[m.name] = metric{1, m.unit}
		}
		ms["round_s"] = metric{roundS, "s"}
		res := result{Fingerprint: f, Workloads: []workloadResult{{Name: "pvfs", Attempted: 3, Metrics: ms}}}
		if err := writeResult(filepath.Join(dir, set, string(rune('a'+seed))+".json"), res); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(1); seed <= 10; seed++ {
		write("a", seed, 2+float64(seed%3)*0.01, fp)
		write("b", seed, 2.6+float64(seed%3)*0.01, fp)
		other := fp
		other.NProc = 4
		write("c", seed, 2, other)
	}
	specPath := "../BENCHMARK.json"
	var out bytes.Buffer
	if code := runCompare(specPath, filepath.Join(dir, "a"), filepath.Join(dir, "a"), &out, &out); code != 0 {
		t.Fatalf("a set against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(specPath, filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out, &out); code != 1 ||
		!bytes.Contains(out.Bytes(), []byte("regressed")) {
		t.Fatalf("30%% slower rounds: exit %d, want 1 with a regressed row\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(specPath, filepath.Join(dir, "a"), filepath.Join(dir, "c"), &out, &out); code != 2 {
		t.Fatalf("mismatched fingerprints: exit %d, want 2\n%s", code, out.String())
	}
	if err := os.Remove(filepath.Join(dir, "b", "b.json")); err != nil {
		t.Fatal(err)
	}
	if code := runCompare(specPath, filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out, &out); code != 2 {
		t.Fatalf("unpaired seeds: exit %d, want 2", code)
	}
}
