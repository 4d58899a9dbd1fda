package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare uses.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares result set B (the change) against result set A
// (its parent), pairing runs by seed. Each workload × end-to-end metric
// gets one row and a verdict; see judge. Exit status: 2 when the sets
// cannot be compared, 1 when any row regressed, 0 otherwise.
func runCompare(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	var sp benchSpec
	data, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fmt.Fprintf(stderr, "reading %s: %v\n", specPath, err)
		return 2
	}
	as, err := loadResults(pathA)
	if err == nil {
		var bs []result
		bs, err = loadResults(pathB)
		if err == nil {
			err = comparable(as, bs)
		}
		if err == nil {
			return printComparison(sp, as, bs, stdout)
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

// loadResults reads one result file, or every *.json file of a
// directory, ordered by seed and then by file name.
func loadResults(path string) ([]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result files", path)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Fingerprint.Seed < out[j].Fingerprint.Seed })
	return out, nil
}

// comparable refuses sets measured on different hosts or toolchains, at
// different seeds, or mixing traced and plain runs (a traced run times
// its plain rounds in half the budget).
func comparable(as, bs []result) error {
	host := func(f fingerprint) fingerprint { f.Commit, f.Seed = "", 0; return f }
	want := host(as[0].Fingerprint)
	for _, r := range append(append([]result(nil), as...), bs...) {
		if got := host(r.Fingerprint); got != want {
			return fmt.Errorf("fingerprints differ: %+v vs %+v", want, got)
		}
		if r.Traced != as[0].Traced {
			return fmt.Errorf("the sets mix traced and plain runs")
		}
	}
	if len(as) != len(bs) {
		return fmt.Errorf("%d runs against %d: the sets must pair up", len(as), len(bs))
	}
	for i := range as {
		if as[i].Fingerprint.Seed != bs[i].Fingerprint.Seed {
			return fmt.Errorf("seeds differ: run %d has seed %d against %d",
				i, as[i].Fingerprint.Seed, bs[i].Fingerprint.Seed)
		}
	}
	return nil
}

// printComparison prints one row per workload and end-to-end metric,
// and one failed_frac row per workload, and returns 1 if any regressed.
func printComparison(sp benchSpec, as, bs []result, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "%-10s %-13s %-30s %-30s %7s %5s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "wins", "verdict")
	for _, wl := range as[0].Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(as, wl.Name, m.Name), values(bs, wl.Name, m.Name)
			if len(va) != len(as) || len(vb) != len(bs) {
				fmt.Fprintf(w, "%-10s %-13s missing from some runs\n", wl.Name, m.Name)
				status = 1
				continue
			}
			v := judge(va, vb, m.Better == "lower", m.Bound)
			if v.verdict == "regressed" {
				status = 1
			}
			fmt.Fprintf(w, "%-10s %-13s %-30s %-30s %+6.1f%% %5.2f  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.medA, v.q1A, v.q3A, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.medB, v.q1B, v.q3B, m.Unit),
				100*(v.medB-v.medA)/v.medA, v.wins, v.verdict)
		}
		fa, ta := failures(as, wl.Name)
		fb, tb := failures(bs, wl.Name)
		verdict := "within bound"
		if fb > fa {
			verdict, status = "regressed", 1
		}
		fmt.Fprintf(w, "%-10s %-13s %-30s %-30s %7s %5s  %s\n", wl.Name, "failed_frac",
			fmt.Sprintf("%d/%d", fa, ta), fmt.Sprintf("%d/%d", fb, tb), "", "", verdict)
	}
	return status
}

// values collects one metric of one workload across a set's runs.
func values(rs []result, workload, name string) []float64 {
	var out []float64
	for _, r := range rs {
		for _, wl := range r.Workloads {
			if m, ok := wl.Metrics[name]; ok && wl.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func failures(rs []result, workload string) (failed, attempted int) {
	for _, r := range rs {
		for _, wl := range r.Workloads {
			if wl.Name == workload {
				failed += wl.Failed
				attempted += wl.Attempted
			}
		}
	}
	return failed, attempted
}

// verdict is one compared row.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins           float64 // fraction of pairs B won; ties count for neither
	verdict        string
}

// judge applies the paired-run rules to runs a (the parent commit) and
// b (change):
//   - improved: b wins at least 9 in 10 pairs and the medians differ, in
//     b's favour, by more than a's interquartile range;
//   - regressed: b's median is worse than a's by more than the bound, and
//     every run of b is worse than every run of a;
//   - unresolved: either set's interquartile range, relative to its
//     median, is wider than the bound, unless every run of b is better
//     than every run of a;
//   - regressed: b's median is worse than a's by more than the bound;
//   - within bound: otherwise.
func judge(a, b []float64, lowerBetter bool, bound float64) verdict {
	var v verdict
	v.q1A, v.medA, v.q3A = quartiles(a)
	v.q1B, v.medB, v.q3B = quartiles(b)
	better := func(x, y float64) bool { return x != y && (x < y) == lowerBetter }
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	v.wins = float64(wins) / float64(len(a))
	worse := (v.medB - v.medA) / v.medA
	if !lowerBetter {
		worse = -worse
	}
	spread := math.Max((v.q3A-v.q1A)/v.medA, (v.q3B-v.q1B)/v.medB)
	lo := func(xs []float64) float64 { return percentile(xs, 0) }
	hi := func(xs []float64) float64 { return percentile(xs, 100) }
	worstB, bestB, worstA, bestA := hi(b), lo(b), hi(a), lo(a)
	if !lowerBetter {
		worstB, bestB, worstA, bestA = lo(b), hi(b), lo(a), hi(a)
	}
	switch {
	case v.wins >= 0.9 && worse < 0 && math.Abs(v.medB-v.medA) > v.q3A-v.q1A:
		v.verdict = "improved"
	case worse > bound && better(worstA, bestB):
		v.verdict = "regressed"
	case spread > bound && !better(worstB, bestA):
		v.verdict = "unresolved"
	case worse > bound:
		v.verdict = "regressed"
	default:
		v.verdict = "within bound"
	}
	return v
}
