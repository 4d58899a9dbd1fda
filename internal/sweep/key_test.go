package sweep_test

import (
	"testing"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/sweep"
)

// pointKey is bench.Config.key at the code version "ioatsim-v6": the
// parts every figure point hashes, in order.
func pointKey(kind string, seed uint64, scale float64, plan *fault.Plan, costs []bench.CostOverride, parts ...any) string {
	return sweep.Key("ioatsim-v6", kind, seed, scale, plan, costs, parts)
}

// TestKeyGolden pins the keys of four real sweep points to the hex the
// original fmt-based encoder gave them. These keys name the files of
// every persisted point cache, so a change here orphans them all. A
// change to a key part's type (a new cost.Params or fault.Plan field)
// moves these keys on purpose; a change to the encoder must not.
func TestKeyGolden(t *testing.T) {
	params := func(costs []bench.CostOverride) *cost.Params {
		p := cost.Default()
		if err := bench.ApplyCostOverrides(p, costs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pin := params(nil)
	pin.PinPerPage = 4 * 150 * time.Nanosecond
	costs := []bench.CostOverride{{Field: "PinPerPage", Value: 300}, {Field: "MTU", Value: 9000}}
	for _, tc := range []struct {
		name, key, want string
	}{
		{"fig3a point 0 at the golden configuration",
			pointKey("fig3a", 1, 0.05, nil, nil, 1, params(nil)),
			"f64a0f7c8a134702746b3076181267386b13b0d223d1360cb76d49b365917583"},
		{"ablpin at 4x the pin cost",
			pointKey("ablpin", 1, 0.05, nil, nil, 4, pin),
			"4138afc644219206adc5bf11f089e7392343b49daf13695941e3243ab5e2a371"},
		{"fig3a point 0 under loss=0.01,seed=7",
			pointKey("fig3a", 1, 0.05, &fault.Plan{Seed: 7, LossRate: 0.01}, nil, 1, params(nil)),
			"003f80e9c242f742aa33de108ffb7b0a91193a5524d30b61d134d23aa91d09a5"},
		{"fig3a point 0 with cost overrides",
			pointKey("fig3a", 1, 0.05, nil, costs, 1, params(costs)),
			"e1cc678d7af4bebb01033c19ae0f80930b8bc472da2303925f76a50224d40a8b"},
	} {
		if tc.key != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, tc.key, tc.want)
		}
	}
}

// BenchmarkKey is the benchmark ladder's sweep.key_ns rung: one key over
// the parts a micro-benchmark point hashes, a full cost.Params included.
func BenchmarkKey(b *testing.B) {
	p := cost.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep.Key("ioatsim-v6", "micro", uint64(1), 0.25, (*fault.Plan)(nil),
			[]bench.CostOverride(nil), []any{i % 6, "ioat-full", p})
	}
}
