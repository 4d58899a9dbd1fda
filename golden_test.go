package ioatsim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ioatsim/internal/bench"
	"ioatsim/internal/sim"
)

// The golden corpus pins the rendered table of every registered
// experiment at a small, fully deterministic scale. Any change to the
// simulator's timing, cost model, RNG consumption or table rendering
// shows up as a readable line diff against testdata/golden/<id>.txt.
//
// To bless an intended change, regenerate the corpus with
//
//	make golden
//
// and review the diff like any other code change.

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden/ from the current simulator output")

// goldenConfig is the corpus configuration: small enough that the whole
// corpus runs in seconds, byte-identical at any Parallel setting, and
// executed under the runtime invariant checker so a corpus run is also a
// full conservation/causality audit.
func goldenConfig() bench.Config {
	return bench.Config{Seed: 1, Scale: 0.05, Check: true}
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

func TestGoldenCorpus(t *testing.T) {
	// No simulation runs on a goroutine process: the whole corpus makes
	// no goroutine handoff. Cleanup runs once every parallel subtest has
	// finished.
	switches := sim.GlobalProcSwitches()
	t.Cleanup(func() {
		if n := sim.GlobalProcSwitches() - switches; n != 0 {
			t.Errorf("the corpus made %d goroutine handoffs; simulation code must run on sim.Task continuations", n)
		}
	})
	for _, r := range bench.Experiments() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			got := r.Run(goldenConfig()).String()
			path := goldenPath(r.ID)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (generate with `make golden`): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s diverges from the golden corpus:\n%s\nIf the change is intended, regenerate with `make golden` and review the diff.",
					r.ID, diffLines(string(want), got))
			}
		})
	}
}

// TestGoldenCorpusComplete fails when an experiment is added without a
// golden file, or a stale golden file outlives its experiment.
func TestGoldenCorpusComplete(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating corpus")
	}
	ids := map[string]bool{}
	for _, r := range bench.Experiments() {
		ids[r.ID] = true
		if _, err := os.Stat(goldenPath(r.ID)); err != nil {
			t.Errorf("experiment %s has no golden file (run `make golden`)", r.ID)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), ".txt")
		if !ids[id] {
			t.Errorf("golden file %s has no registered experiment", f)
		}
	}
}

// diffLines renders a minimal line-oriented diff: common lines elided,
// divergent lines shown as -want/+got pairs with 1-based line numbers.
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "  line %d:\n  - %s\n  + %s\n", i+1, w, g)
	}
	return b.String()
}
