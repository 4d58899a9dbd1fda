package sweep_test

import (
	"testing"

	"ioatsim/internal/bench"
	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/sweep"
)

// pointKey is bench.Config.key: the parts every sweep point hashes, in
// order, typed as Config.key passes them.
func pointKey(id string, seed uint64, scale float64, plan *fault.Plan, costs []bench.CostOverride, i int) string {
	return sweep.Key(id, seed, scale, plan, costs, i)
}

// TestKeyGolden pins the keys of four real sweep points, each the name
// of the <key>.gob file its runner writes into a point-cache directory.
// A change to a key part's type (a new fault.Plan or CostOverride field)
// moves these keys on purpose; a change to the encoder must not.
func TestKeyGolden(t *testing.T) {
	costs := []bench.CostOverride{{Field: "PinPerPage", Value: 300}, {Field: "MTU", Value: 9000}}
	for _, tc := range []struct {
		name, key, want string
	}{
		{"fig3a point 0 at the golden configuration",
			pointKey("fig3a", 1, 0.05, nil, nil, 0),
			"914bcfcb6c058f56512a029257cf84fe0fb5a40b53741382f92e8e48af876d27"},
		{"ablpin index 3 (4x the pin cost)",
			pointKey("ablpin", 1, 0.05, nil, nil, 3),
			"02e288cfe959a04f5b3d6514803c411fe64abfd2257611c2c13bf89b0d18fb42"},
		{"fig3a point 0 under loss=0.01,seed=7",
			pointKey("fig3a", 1, 0.05, &fault.Plan{Seed: 7, LossRate: 0.01}, nil, 0),
			"fba0037ab8724a8a1652bb57ab4589bde7c5f0a286a46b42cc96d0c1bf59675a"},
		{"fig3a point 0 with cost overrides",
			pointKey("fig3a", 1, 0.05, nil, costs, 0),
			"a136557571b193e4f962bd7893d9e407b8c30e76f0f0f29f3cbad40b6d898e1c"},
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
