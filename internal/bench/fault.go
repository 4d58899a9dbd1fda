package bench

import (
	"fmt"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/stats"
)

// faultRow is one measured loss rate: the six-port unidirectional
// layout of Fig 3a under per-frame Bernoulli loss, without and with
// the full I/OAT stack.
type faultRow struct {
	Plain, Accel         microResult
	PlainRetx, AccelRetx int64
}

// faultLossRates are the per-frame drop probabilities the sweep visits.
// Zero is deliberate: the first row must match the lossless fabric
// exactly (the benign-plan differential in fault_test.go pins the same
// property across every figure).
var faultLossRates = []float64{0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02}

// faultPoint measures one loss rate under cfg, which faultConfig built.
// The plan seed is derived from the config seed, so the same frames are
// dropped for both feature sets — the comparison isolates the recovery
// cost, not the noise.
func faultPoint(cfg Config, rate float64) faultRow {
	pc := cfg
	// RTO bounds sized to this fabric's sub-millisecond RTTs: the
	// defaults (1ms..100ms) are safety margins for unknown networks, and
	// a 100ms initial timer would eat the whole measurement window.
	pc.Fault = &fault.Plan{Seed: cfg.Seed, LossRate: rate,
		RTOMin: 500 * time.Microsecond, RTOMax: 10 * time.Millisecond}
	var row faultRow
	row.Plain = runMicroWith(pc.params(), ioat.None(), pc,
		portStreams(6, 64*cost.KB, false), func(a, b *host.Node) {
			row.PlainRetx = a.Stack.Retransmits
		})
	row.Accel = runMicroWith(pc.params(), ioat.Full(), pc,
		portStreams(6, 64*cost.KB, false), func(a, b *host.Node) {
			row.AccelRetx = a.Stack.Retransmits
		})
	return row
}

// faultConfig is the config every fault_loss point runs under, and so
// the one its points are keyed by: each point replaces the fault plan
// with its own, and recovery runs on absolute timescales (RTO backoff),
// which do not shrink with the measurement window. Below a quarter
// scale the window is shorter than one timeout cycle and the high-loss
// rows read zero, so this figure floors its own scale.
func faultConfig(cfg Config) Config {
	cfg.Fault = nil
	if cfg.Scale > 0 && cfg.Scale < 0.25 {
		cfg.Scale = 0.25
	}
	return cfg
}

// FaultLoss is the loss-sweep figure: goodput and receiver CPU of the
// Fig 3a six-port layout as the per-frame loss rate rises from zero to
// 2%, traditional sockets vs. the full I/OAT stack. Go-back-N recovery
// amplifies every drop into a resent window, so goodput degrades
// faster than the raw loss rate; the I/OAT columns show whether the
// offloads keep their CPU advantage once the receive path is spending
// cycles on discards and retransmitted bytes.
func FaultLoss(cfg Config) *Result {
	series := stats.NewSeries("Loss sweep: goodput under faults", "Loss%",
		"non-I/OAT Mbps", "I/OAT Mbps", "non-I/OAT CPU%", "I/OAT CPU%",
		"non-I/OAT retx", "I/OAT retx")
	pc := faultConfig(cfg)
	rows := points(pc, "fault_loss", len(faultLossRates), func(i int) faultRow {
		return faultPoint(pc, faultLossRates[i])
	})
	for i, r := range rows {
		rate := faultLossRates[i]
		series.Add(rate*100, fmt.Sprintf("%g%%", rate*100),
			r.Plain.Mbps, r.Accel.Mbps, pct(r.Plain.CPURecv), pct(r.Accel.CPURecv),
			float64(r.PlainRetx), float64(r.AccelRetx))
	}
	return &Result{ID: "fault_loss", Title: "Goodput and CPU vs. loss rate", Series: series,
		Notes: []string{
			"extension: the paper's fabric is lossless; this sweep adds per-frame Bernoulli loss",
			"go-back-N recovery resends the whole unacked window per drop, so goodput falls superlinearly",
		}}
}
