package bench

import (
	"context"
	"reflect"
	"testing"

	"ioatsim/internal/fault"
	"ioatsim/internal/host"
	"ioatsim/internal/sweep"
	"ioatsim/internal/trace"
)

// TestPointKeyConfigSensitivity checks which Config fields reach the
// point-cache key: Seed and Scale must (they change the tables), while
// Parallel, Check, Obs and Cache must not (they change execution, not
// outcomes — caching across them is the whole point). The completeness
// sweep at the end forces this decision for any future Config field.
func TestPointKeyConfigSensitivity(t *testing.T) {
	base := Config{Seed: 1, Scale: 0.5, Parallel: 2}
	k0 := base.key("probe", 7)

	seedCfg := base
	seedCfg.Seed = 2
	if seedCfg.key("probe", 7) == k0 {
		t.Error("changing Seed does not change the point key")
	}
	scaleCfg := base
	scaleCfg.Scale = 0.25
	if scaleCfg.key("probe", 7) == k0 {
		t.Error("changing Scale does not change the point key")
	}

	parCfg := base
	parCfg.Parallel = 9
	if parCfg.key("probe", 7) != k0 {
		t.Error("Parallel must not reach the point key (tables are identical at any setting)")
	}
	checkCfg := base
	checkCfg.Check = true
	if checkCfg.key("probe", 7) != k0 {
		t.Error("Check must not reach the point key (the checker never alters outcomes)")
	}
	obsCfg := base
	obsCfg.Obs = host.Observability{Profile: trace.NewProfiler()}
	if obsCfg.key("probe", 7) != k0 {
		t.Error("Obs must not reach the point key (observability never alters outcomes)")
	}
	cacheCfg := base
	cacheCfg.Cache = sweep.NewPointCache("")
	if cacheCfg.key("probe", 7) != k0 {
		t.Error("Cache must not reach the point key")
	}
	strictCfg := base
	strictCfg.Strict = true
	if strictCfg.key("probe", 7) != k0 {
		t.Error("Strict must not reach the point key (fail-fast checking never alters outcomes)")
	}
	faultCfg := base
	faultCfg.Fault = &fault.Plan{Seed: 1, LossRate: 0.01}
	if faultCfg.key("probe", 7) == k0 {
		t.Error("Fault must reach the point key: a lossy run is a different result")
	}
	benignCfg := base
	benignCfg.Fault = &fault.Plan{}
	if benignCfg.key("probe", 7) == k0 {
		t.Error("a non-nil benign plan still keys separately from a nil plan")
	}
	costCfg := base
	costCfg.Costs = []CostOverride{{Field: "MTU", Value: 2048}}
	if costCfg.key("probe", 7) == k0 {
		t.Error("Costs must reach the point key: overridden costs change the tables")
	}
	ctxCfg := base
	ctxCfg.Ctx = context.Background()
	if ctxCfg.key("probe", 7) != k0 {
		t.Error("Ctx must not reach the point key (cancellation never alters a finished table)")
	}

	decided := map[string]bool{
		"Seed": true, "Scale": true, "Fault": true, "Costs": true,
		"Parallel": false, "Check": false, "Strict": false, "Obs": false, "Cache": false,
		"Ctx": false,
	}
	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		if _, ok := decided[rt.Field(i).Name]; !ok {
			t.Errorf("new Config field %q: decide whether it joins the point-cache key and add it to this test",
				rt.Field(i).Name)
		}
	}
}

// keySink keeps BenchmarkPointKey's result live.
var keySink string

// BenchmarkPointKey times one sweep point's cache key as points builds
// it: the runner id and index, and the config's Seed, Scale, Fault and
// Costs.
func BenchmarkPointKey(b *testing.B) {
	cfg := Config{Seed: 1, Scale: 0.25}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = cfg.key("fig3a", i%6)
	}
}

// TestCachedFigureIdentity runs one representative figure cold, then
// warm from the same cache, and checks the rendered tables are
// byte-identical and the warm pass computed nothing. (The all-21-runner
// equivalent runs against the golden corpus in the repo root tests.)
func TestCachedFigureIdentity(t *testing.T) {
	cache := sweep.NewPointCache(t.TempDir())
	cfg := Config{Seed: 1, Scale: 0.05, Check: true, Cache: cache}
	plain := Fig6(Config{Seed: 1, Scale: 0.05, Check: true}).String()
	cold := Fig6(cfg).String()
	warm := Fig6(cfg).String()
	if cold != plain {
		t.Error("cold cached run diverges from the uncached table")
	}
	if warm != plain {
		t.Error("warm cached run diverges from the uncached table")
	}
	hits, misses := cache.Stats()
	if misses == 0 || hits != misses {
		t.Errorf("stats = %d hits, %d misses; want one full cold pass and one full warm pass", hits, misses)
	}
}
