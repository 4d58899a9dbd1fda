package sweep_test

import (
	"testing"

	"ioatsim/internal/bench"
	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/sweep"
)

// pointKey is bench.Config.key at the code version "ioatsim-v6": the
// parts every sweep point hashes, in order, typed as Config.key passes
// them.
func pointKey(id string, seed uint64, scale float64, plan *fault.Plan, costs []bench.CostOverride, i int) string {
	return sweep.Key("ioatsim-v6", id, seed, scale, plan, costs, i)
}

// TestKeyGolden pins the keys of four real sweep points, each the name
// of the <key>.gob file its runner writes into a point-cache directory.
// These keys name the files of every persisted point cache, so a change
// here orphans them all. A change to a key part's type (a new
// fault.Plan or CostOverride field) moves these keys on purpose; a
// change to the encoder must not.
func TestKeyGolden(t *testing.T) {
	costs := []bench.CostOverride{{Field: "PinPerPage", Value: 300}, {Field: "MTU", Value: 9000}}
	for _, tc := range []struct {
		name, key, want string
	}{
		{"fig3a point 0 at the golden configuration",
			pointKey("fig3a", 1, 0.05, nil, nil, 0),
			"6d48ec41522998277423838db37d959e2b1c5786302c9d4dbcdba401c5503749"},
		{"ablpin index 3 (4x the pin cost)",
			pointKey("ablpin", 1, 0.05, nil, nil, 3),
			"2d4044dab4c1e12c6c29f03d7e91560334e09e6317265057214dc81f444bc05f"},
		{"fig3a point 0 under loss=0.01,seed=7",
			pointKey("fig3a", 1, 0.05, &fault.Plan{Seed: 7, LossRate: 0.01}, nil, 0),
			"21ba0c8eac94017fd9e48ccd9f939dd2e5c05de69f952e17f6b10f4a1a56e93b"},
		{"fig3a point 0 with cost overrides",
			pointKey("fig3a", 1, 0.05, nil, costs, 0),
			"9fc2dec27c509b0bf3b32c1462c24941cf19fbb44b43ca28f35d926d62dc1cba"},
	} {
		if tc.key != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, tc.key, tc.want)
		}
	}
}

// BenchmarkKey mirrors the benchmark ladder's sweep.key_ns rung: one
// key over a full cost.Params among its parts. No point key has that
// shape any more; BenchmarkPointKey in internal/bench times the key
// every sweep point builds.
func BenchmarkKey(b *testing.B) {
	p := cost.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep.Key("ioatsim-v6", "micro", uint64(1), 0.25, (*fault.Plan)(nil),
			[]bench.CostOverride(nil), []any{i % 6, "ioat-full", p})
	}
}
