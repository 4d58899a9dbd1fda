package bench

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ioatsim/internal/cost"
)

func TestDecodeRequestRejectsUnknownFields(t *testing.T) {
	_, err := DecodeRequest(strings.NewReader(`{"runers": ["fig6"]}`))
	if err == nil {
		t.Fatal("a typoed field decoded silently")
	}
	q, err := DecodeRequest(strings.NewReader(
		`{"runners": ["fig6"], "seed": 2, "scale": 0.1, "costs": [{"field": "MTU", "value": 2048}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Runners) != 1 || q.Seed != 2 || q.Scale != 0.1 || len(q.Costs) != 1 {
		t.Fatalf("decoded request wrong: %+v", q)
	}
}

func TestRequestValidate(t *testing.T) {
	bad := []Request{
		{Runners: []string{"nope"}},
		{Scale: -1},
		{Parallel: -2},
		{Fault: "loss=notanumber"},
		{Costs: []CostOverride{{Field: "NoSuchField", Value: 1}}},
		{Costs: []CostOverride{{Field: "Cores", Value: -4}}}, // Params.Validate rejects
	}
	for i, q := range bad {
		if err := q.Validate(0); err == nil {
			t.Errorf("bad request %d validated: %+v", i, q)
		}
	}
	if err := bad[0].Validate(0); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown runner: Validate = %v, want %v", err, ErrUnknownExperiment)
	}
	if err := (Request{Runners: []string{"fig6"}, Scale: 0.05}).Validate(0); err != nil {
		t.Errorf("good request rejected: %v", err)
	}
	if err := (Request{Scale: 0.5}).Validate(0.25); err == nil {
		t.Error("scale above maxScale validated")
	}
}

// TestRequestRejectsWideCache pins that an associativity the cache
// model cannot hold is refused when the request is validated (a 400
// from ioatd), not by a panic in mem.NewCache on a worker.
func TestRequestRejectsWideCache(t *testing.T) {
	q, err := DecodeRequest(strings.NewReader(`{"costs":[{"field":"CacheWays","value":16}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(0); !errors.Is(err, cost.ErrCacheWays) {
		t.Fatalf("Validate = %v, want %v", err, cost.ErrCacheWays)
	}
	if _, _, err := q.Config(0); !errors.Is(err, cost.ErrCacheWays) {
		t.Fatalf("Config = %v, want %v", err, cost.ErrCacheWays)
	}
}

func TestRequestConfigDefaultsAndSelection(t *testing.T) {
	cfg, runners, err := Request{}.Config(0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 1 || cfg.Scale != 1 {
		t.Fatalf("zero request must mean the CLI defaults, got seed=%d scale=%v", cfg.Seed, cfg.Scale)
	}
	if len(runners) != len(Experiments()) {
		t.Fatalf("zero request selects %d runners, want all %d", len(runners), len(Experiments()))
	}

	cfg, runners, err = Request{Runners: []string{"fig9", "fig6"}, Seed: 7, Fault: "loss=0.001"}.Config(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runners) != 2 || runners[0].ID != "fig9" || runners[1].ID != "fig6" {
		t.Fatalf("selection order not preserved: %v", runners)
	}
	if cfg.Fault == nil || cfg.Fault.Seed != 7 {
		t.Fatalf("fault plan seed must default to the request seed, got %+v", cfg.Fault)
	}
}

func TestApplyCostOverrides(t *testing.T) {
	p := cost.Default()
	err := ApplyCostOverrides(p, []CostOverride{
		{Field: "MTU", Value: 2048},
		{Field: "TSO", Value: 1},
		{Field: "Syscall", Value: float64(2 * time.Microsecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.MTU != 2048 || !p.TSO || p.Syscall != 2*time.Microsecond {
		t.Fatalf("overrides not applied: MTU=%d TSO=%v Syscall=%v", p.MTU, p.TSO, p.Syscall)
	}
}

// TestCostOverridesChangeTables runs a tiny figure with and without an
// override that must move the numbers: the request surface really
// reaches the simulation.
func TestCostOverridesChangeTables(t *testing.T) {
	base := Config{Seed: 1, Scale: 0.05}
	slow := base
	// A 10x slower copy engine must change Fig 6's DMA columns.
	slow.Costs = []CostOverride{{Field: "DMABytesPerSec", Value: 260e6}}
	if Fig6(base).String() == Fig6(slow).String() {
		t.Fatal("cost override did not change the rendered table")
	}
	// And the same config twice stays deterministic.
	if Fig6(slow).String() != Fig6(slow).String() {
		t.Fatal("overridden run is not deterministic")
	}
}

// TestRunContextCancelMidSweep cancels during the first points of a
// figure and checks the runner unwinds into an error instead of
// finishing or panicking.
func TestRunContextCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	cfg := Config{Seed: 1, Scale: 0.05, Parallel: 1, Ctx: ctx}
	// Cancel as soon as the first point runs: wrap the context check by
	// cancelling from a goroutine watching a flag set via the cache key
	// function would be invasive; instead run sequentially and cancel
	// after a short delay — the scale-0.05 figure takes long enough
	// that some points remain.
	go func() {
		for atomic.LoadInt32(&started) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	atomic.StoreInt32(&started, 1)
	res, err := Runner{ID: "fig9", Run: Fig9}.RunContext(cfg)
	if err == nil {
		// The race between cancel and completion is legal; only a
		// cancelled run must report it.
		if res == nil {
			t.Fatal("nil result without error")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run still returned a result")
	}
}

// TestRunContextPreCancelled is the deterministic variant: a cancelled
// context aborts before any point runs.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Runner{ID: "fig6", Run: Fig6}.RunContext(Config{Seed: 1, Scale: 0.05, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("pre-cancelled run returned a result")
	}
}
