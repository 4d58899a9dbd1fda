package bench

import (
	"testing"

	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sweep"
)

// TestFaultSeedSensitivity pins that the fault plane draws from its own
// seed: two plans that differ only in Seed must drop different frames
// (different counts, with overwhelming probability at this rate) and
// therefore measure different goodput, while re-running either plan
// reproduces its numbers exactly.
func TestFaultSeedSensitivity(t *testing.T) {
	run := func(seed uint64) (microResult, int64) {
		cfg := Config{Seed: 1, Scale: 0.1, Check: true}
		cfg.Fault = &fault.Plan{Seed: seed, LossRate: 0.005}
		var dropped int64
		r := runMicroWith(cost.Default(), ioat.None(), cfg,
			portStreams(2, 64*cost.KB, false), func(a, b *host.Node) {
				for _, pt := range a.NIC.Ports {
					dropped += pt.Fault.DroppedChunks
				}
			})
		return r, dropped
	}

	r1, d1 := run(1)
	r2, d2 := run(2)
	if d1 == 0 || d2 == 0 {
		t.Fatalf("expected drops under 0.5%% loss: seed1=%d seed2=%d", d1, d2)
	}
	if d1 == d2 && r1.Mbps == r2.Mbps {
		t.Errorf("distinct fault seeds produced identical runs (%d drops, %.1f Mbps)", d1, r1.Mbps)
	}
	r1b, d1b := run(1)
	if d1b != d1 || r1b != r1 {
		t.Errorf("same seed not reproducible: drops %d vs %d, %+v vs %+v", d1, d1b, r1, r1b)
	}
}

// TestFaultLossMonotone pins the loss-sweep figure's defining shape:
// goodput must not increase as the loss rate rises, for either feature
// set.
func TestFaultLossMonotone(t *testing.T) {
	res := FaultLoss(Config{Seed: 1, Scale: 0.05, Parallel: 0, Check: true})
	for _, col := range []string{"non-I/OAT Mbps", "I/OAT Mbps"} {
		prev := -1.0
		for i, p := range res.Series.Points {
			v := p.Values[col]
			if prev >= 0 && v > prev {
				t.Errorf("%s rises from %.1f to %.1f at row %d (loss %g%%)",
					col, prev, v, i, p.X)
			}
			prev = v
		}
	}
}

// TestFaultLossKeysItsOwnConfig pins that fault_loss keys its points by
// the config they run under. Each point replaces the configured fault
// plan with its own and floors the scale at 0.25, so a run at another
// scale below the floor, under a plan, must be answered by the points
// an earlier run stored.
func TestFaultLossKeysItsOwnConfig(t *testing.T) {
	cache := sweep.NewPointCache("")
	first := FaultLoss(Config{Seed: 1, Scale: 0.05, Cache: cache}).String()
	h0, m0 := cache.Stats()
	plan, err := fault.ParseSpec("loss=0.001")
	if err != nil {
		t.Fatal(err)
	}
	second := FaultLoss(Config{Seed: 1, Scale: 0.1, Fault: &plan, Cache: cache}).String()
	h1, m1 := cache.Stats()
	if second != first {
		t.Errorf("tables differ:\n%s\nvs\n%s", first, second)
	}
	if n := len(faultLossRates); h1-h0 != uint64(n) || m1 != m0 {
		t.Errorf("second run: %d hits, %d misses; want %d hits, 0 misses", h1-h0, m1-m0, n)
	}
}
