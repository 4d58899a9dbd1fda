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

// TestPointKeyConfigSensitivity is the point-key contract: one row per
// Config field, with a setter that moves the field off the base config
// and whether the point key must move with it. Seed, Scale, Fault and
// Costs change the tables, so they must join the key; the rest change
// how a run executes or what it records, so caching across them is the
// whole point. A field with no row fails, so every new field is
// decided here.
func TestPointKeyConfigSensitivity(t *testing.T) {
	rows := map[string]struct {
		set   func(*Config)
		keyed bool
	}{
		"Seed":     {func(c *Config) { c.Seed = 2 }, true},
		"Scale":    {func(c *Config) { c.Scale = 0.25 }, true},
		"Fault":    {func(c *Config) { c.Fault = &fault.Plan{Seed: 1, LossRate: 0.01} }, true},
		"Costs":    {func(c *Config) { c.Costs = []CostOverride{{Field: "MTU", Value: 2048}} }, true},
		"Parallel": {func(c *Config) { c.Parallel = 9 }, false},
		"Check":    {func(c *Config) { c.Check = true }, false},
		"Strict":   {func(c *Config) { c.Strict = true }, false},
		"Obs":      {func(c *Config) { c.Obs = host.Observability{Profile: trace.NewProfiler()} }, false},
		"Cache":    {func(c *Config) { c.Cache = sweep.NewPointCache("") }, false},
		"Ctx":      {func(c *Config) { c.Ctx = context.Background() }, false},
	}
	base := Config{Seed: 1, Scale: 0.5, Parallel: 2}
	k0 := base.key("probe", 7)
	rt := reflect.TypeOf(base)
	for i := range rt.NumField() {
		name := rt.Field(i).Name
		row, ok := rows[name]
		if !ok {
			t.Errorf("Config.%s has no row: decide whether it joins the point key", name)
			continue
		}
		cfg := base
		row.set(&cfg)
		if reflect.DeepEqual(reflect.ValueOf(cfg).Field(i).Interface(), reflect.ValueOf(base).Field(i).Interface()) {
			t.Errorf("the %s row's setter leaves Config.%s at its base value", name, name)
			continue
		}
		switch moved := cfg.key("probe", 7) != k0; {
		case row.keyed && !moved:
			t.Errorf("changing Config.%s leaves the point key unchanged; it must join the key", name)
		case !row.keyed && moved:
			t.Errorf("changing Config.%s moves the point key; it must stay out of it", name)
		}
	}

	benign := base
	benign.Fault = &fault.Plan{}
	if benign.key("probe", 7) == k0 {
		t.Error("a non-nil benign plan must key apart from a nil plan")
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
