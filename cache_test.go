package ioatsim

import (
	"os"
	"testing"

	"ioatsim/internal/bench"
	"ioatsim/internal/sweep"
)

// TestGoldenCorpusWithCache replays the whole corpus through the point
// cache: a cold pass populates it, a warm pass must answer every point
// from its memo, a disk pass through a fresh cache over the same
// directory must answer every point from the files, and all three must
// render byte-identical to the committed golden files. This pins the
// cache's core contract — memoized rows, and rows decoded from disk,
// are indistinguishable from simulated ones.
func TestGoldenCorpusWithCache(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating corpus")
	}
	if raceEnabled {
		// Two full corpus passes don't fit the default timeout under
		// the race detector on slow hosts; the cache's concurrency is
		// race-audited by the internal/sweep tests and the identity by
		// the non-race run of this test.
		t.Skip("skipping double corpus pass under -race")
	}
	dir := t.TempDir()
	cache := sweep.NewPointCache(dir)
	cfg := goldenConfig()
	cfg.Cache = cache

	var prevHits, prevMisses uint64
	for _, pass := range []string{"cold", "warm", "disk"} {
		if pass == "disk" {
			cache = sweep.NewPointCache(dir)
			cfg.Cache = cache
		}
		for _, r := range bench.Experiments() {
			got := r.Run(cfg).String()
			want, err := os.ReadFile(goldenPath(r.ID))
			if err != nil {
				t.Fatalf("missing golden file (generate with `make golden`): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s pass: %s diverges from the golden corpus:\n%s",
					pass, r.ID, diffLines(string(want), got))
			}
		}
		hits, misses := cache.Stats()
		switch pass {
		case "cold":
			if hits != 0 {
				t.Errorf("cold pass had %d hits in an empty cache", hits)
			}
		case "warm":
			if misses != prevMisses {
				t.Errorf("warm pass computed %d points; every point must come from the cache", misses-prevMisses)
			}
			if hits-prevHits != prevMisses {
				t.Errorf("warm pass hit %d of %d points", hits-prevHits, prevMisses)
			}
		case "disk":
			if misses != 0 || hits != prevMisses {
				t.Errorf("disk pass hit %d and missed %d of %d points; every point must come from the files",
					hits, misses, prevMisses)
			}
		}
		prevHits, prevMisses = hits, misses
	}
}
