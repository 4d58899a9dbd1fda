// Package fault is the simulator's adversarial plane: a deterministic,
// seed-derived source of the imperfections the paper's dedicated testbed
// never sees — per-link packet loss (Bernoulli or bursty Gilbert-Elliott),
// link up/down flap schedules, NIC receive-ring overflow under burst, and
// degraded (slowed) nodes.
//
// A Plan describes the fault regime declaratively; host construction
// turns it into an Injector that hands each device a small per-entity
// fault state (LinkFault, NICFault, NodeFault). Devices hold the pointer
// and consult it inline; a nil pointer is the lossless fabric and costs
// exactly one pointer compare, so the steady-state packet path stays
// allocation-free when no plan is installed.
//
// Determinism: every random decision draws from a per-entity RNG whose
// seed is derived from (Plan.Seed, node name, port index) by hashing, so
// outcomes do not depend on construction order or on how many other
// entities exist, and sweeps stay byte-identical at any parallelism. The
// fault RNG is entirely separate from the workload RNG — a Plan with all
// rates at zero perturbs nothing.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"ioatsim/internal/rng"
	"ioatsim/internal/sim"
)

// Plan declares a fault regime. The zero value is a fully benign plan:
// hooks are installed (and the transport's recovery machinery armed) but
// nothing ever drops, flaps, or slows — the differential tests pin that a
// zero plan reproduces every golden table byte-for-byte.
//
// All fields are exported scalars so a Plan embeds directly in the
// content-addressed sweep cache key and gob-encodes with cached rows.
type Plan struct {
	// Seed derives every per-entity RNG. Plans differing only in Seed
	// produce different drop patterns (the seed-sensitivity test pins
	// this); Seed 0 is a valid, distinct seed.
	Seed uint64

	// LossRate is the per-frame Bernoulli drop probability in [0, 1).
	// A chunk (burst of frames) is dropped if any of its frames would be,
	// so the per-chunk drop probability is 1-(1-LossRate)^frames.
	LossRate float64

	// Gilbert-Elliott burst loss: in the bad state frames drop at
	// BurstLossRate instead of LossRate; the chain moves good->bad with
	// probability PGoodBad and bad->good with PBadGood, evaluated once
	// per offered chunk. BurstLossRate = 0 disables the model.
	BurstLossRate float64
	PGoodBad      float64
	PBadGood      float64

	// DropMask, when MaskBits > 0, overrides the probabilistic models
	// with an exact schedule: offered chunk number i (per link, counted
	// from 0) is dropped iff bit i%MaskBits of DropMask is set. Unit and
	// fuzz tests use it to force specific loss patterns.
	DropMask uint64
	MaskBits int

	// Link flapping: every FlapPeriod the link goes down for FlapDown
	// (chunks offered inside the window are dropped). Each link's window
	// is phase-shifted by its RNG so flaps do not synchronize across
	// ports. Either duration at zero disables flapping.
	FlapPeriod time.Duration
	FlapDown   time.Duration

	// RxRingFrames bounds the NIC receive ring: frames from chunks whose
	// softirq processing has not yet drained count against it, and a
	// chunk that would overflow the ring is dropped at the NIC. Zero
	// means unbounded (the seed behaviour). Must be at least one
	// ChunkMax worth of frames, or host construction panics (a smaller
	// ring could never admit a full-size chunk and would livelock the
	// retransmitting sender).
	RxRingFrames int

	// Degraded nodes: a node chosen by SlowFraction runs all CPU work
	// SlowFactor times slower (1 or 0 = no slowdown). Selection hashes
	// the node name against Seed, so it is stable across runs; a
	// SlowFraction <= 0 with SlowFactor set degrades every node,
	// otherwise each node is degraded with probability SlowFraction.
	SlowFactor   float64
	SlowFraction float64

	// Transport recovery tuning (consumed by internal/tcp). Zero values
	// select the defaults noted on each field.
	RTOMin       time.Duration // initial/minimum RTO (default 1ms)
	RTOMax       time.Duration // backoff cap (default 100ms)
	MaxRetries   int           // consecutive RTOs without progress before the run aborts (default 24; negative = unlimited)
	DupAckThresh int           // duplicate ACKs that trigger fast retransmit (default 3)
}

// Validate rejects out-of-range rates and nonsensical schedules.
func (p *Plan) Validate() error {
	check01 := func(name string, v float64) error {
		if v < 0 || v >= 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1)", name, v)
		}
		return nil
	}
	if err := check01("LossRate", p.LossRate); err != nil {
		return err
	}
	if err := check01("BurstLossRate", p.BurstLossRate); err != nil {
		return err
	}
	if p.PGoodBad < 0 || p.PGoodBad > 1 || p.PBadGood < 0 || p.PBadGood > 1 {
		return fmt.Errorf("fault: state-transition probabilities outside [0, 1]")
	}
	if p.MaskBits < 0 || p.MaskBits > 64 {
		return fmt.Errorf("fault: MaskBits %d outside [0, 64]", p.MaskBits)
	}
	if p.FlapPeriod < 0 || p.FlapDown < 0 || p.FlapDown > p.FlapPeriod {
		return fmt.Errorf("fault: flap window %v/%v invalid", p.FlapPeriod, p.FlapDown)
	}
	if p.RxRingFrames < 0 {
		return fmt.Errorf("fault: negative RxRingFrames %d", p.RxRingFrames)
	}
	if p.SlowFactor < 0 || p.SlowFraction < 0 || p.SlowFraction > 1 {
		return fmt.Errorf("fault: slowdown %v@%v invalid", p.SlowFactor, p.SlowFraction)
	}
	if p.RTOMin < 0 || p.RTOMax < 0 || (p.RTOMax > 0 && p.RTOMin > p.RTOMax) {
		return fmt.Errorf("fault: RTO bounds %v/%v invalid", p.RTOMin, p.RTOMax)
	}
	return nil
}

// ParseSpec parses the ioatbench -fault flag syntax: comma-separated
// key=value entries, e.g.
//
//	loss=0.01,seed=7
//	burst=0.3,pgb=0.05,pbg=0.25
//	flap=50ms/5ms,ring=256,slow=1.5@0.5
//	mask=0x2/8,retries=16,rtomin=1ms,rtomax=50ms,dupack=3
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("fault: entry %q is not key=value", field)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 0, 64)
		case "loss":
			p.LossRate, err = strconv.ParseFloat(v, 64)
		case "burst":
			p.BurstLossRate, err = strconv.ParseFloat(v, 64)
		case "pgb":
			p.PGoodBad, err = strconv.ParseFloat(v, 64)
		case "pbg":
			p.PBadGood, err = strconv.ParseFloat(v, 64)
		case "mask":
			bits, nbits, ok := strings.Cut(v, "/")
			if !ok {
				return p, fmt.Errorf("fault: mask %q wants <bits>/<nbits>", v)
			}
			if p.DropMask, err = strconv.ParseUint(bits, 0, 64); err == nil {
				p.MaskBits, err = strconv.Atoi(nbits)
			}
		case "flap":
			period, down, ok := strings.Cut(v, "/")
			if !ok {
				return p, fmt.Errorf("fault: flap %q wants <period>/<down>", v)
			}
			if p.FlapPeriod, err = time.ParseDuration(period); err == nil {
				p.FlapDown, err = time.ParseDuration(down)
			}
		case "ring":
			p.RxRingFrames, err = strconv.Atoi(v)
		case "slow":
			factor, frac, has := strings.Cut(v, "@")
			if p.SlowFactor, err = strconv.ParseFloat(factor, 64); err == nil && has {
				p.SlowFraction, err = strconv.ParseFloat(frac, 64)
			}
		case "rtomin":
			p.RTOMin, err = time.ParseDuration(v)
		case "rtomax":
			p.RTOMax, err = time.ParseDuration(v)
		case "retries":
			p.MaxRetries, err = strconv.Atoi(v)
		case "dupack":
			p.DupAckThresh, err = strconv.Atoi(v)
		default:
			return p, fmt.Errorf("fault: unknown key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("fault: bad value for %s: %v", k, err)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// ---- seed derivation ----

// hash64 is FNV-1a over the label, mixed through splitmix-style avalanche
// so nearby labels land far apart.
func hash64(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hash01 maps a label deterministically to [0, 1).
func hash01(seed uint64, label string) float64 {
	return float64(hash64(seed, label)>>11) / (1 << 53)
}

// ---- injector ----

// Injector instantiates a Plan's per-entity fault state for one cluster.
// Host construction builds one and attaches the resulting hooks to every
// device it assembles.
type Injector struct {
	plan  Plan
	links []*LinkFault
	nics  []*NICFault
	nodes []*NodeFault
}

// NewInjector validates the plan and returns its injector.
func NewInjector(p Plan) *Injector {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	return &Injector{plan: p}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() *Plan { return &in.plan }

// Link returns the fault state for the transmit side of port index on
// the named node. Each (node, port) pair gets its own RNG and flap
// phase, derived purely from the plan seed and the pair's identity.
func (in *Injector) Link(node string, port int) *LinkFault {
	label := "link:" + node + ":" + strconv.Itoa(port)
	lf := &LinkFault{
		plan: &in.plan,
		r:    rng.New(hash64(in.plan.Seed, label)),
	}
	if in.plan.FlapPeriod > 0 && in.plan.FlapDown > 0 {
		lf.flapPhase = time.Duration(hash01(in.plan.Seed, label+":phase") * float64(in.plan.FlapPeriod))
	}
	in.links = append(in.links, lf)
	return lf
}

// NIC returns the receive-ring fault state for the named node's NIC.
func (in *Injector) NIC(node string) *NICFault {
	nf := &NICFault{plan: &in.plan}
	in.nics = append(in.nics, nf)
	return nf
}

// Node returns the CPU fault state for the named node. The slowdown
// decision is made here, once, from the plan seed and the node name.
func (in *Injector) Node(node string) *NodeFault {
	nf := &NodeFault{factor: 1}
	if f := in.plan.SlowFactor; f > 0 && f != 1 {
		frac := in.plan.SlowFraction
		if frac <= 0 {
			frac = 1
		}
		if hash01(in.plan.Seed, "node:"+node) < frac {
			nf.factor = f
		}
	}
	in.nodes = append(in.nodes, nf)
	return nf
}

// Totals aggregates drop counters across every entity the injector
// built, for reports and post-run assertions.
type Totals struct {
	LinkDroppedChunks int64
	LinkDroppedBytes  int64
	FlapDroppedChunks int64
	NICDroppedChunks  int64
	NICDroppedBytes   int64
	SlowNodes         int
}

// Totals sums the per-entity counters.
//
//ioatlint:allow deadapi — read by internal/tcp's loss-recovery tests and fuzzer
func (in *Injector) Totals() Totals {
	var t Totals
	for _, lf := range in.links {
		t.LinkDroppedChunks += lf.DroppedChunks
		t.LinkDroppedBytes += lf.DroppedBytes
		t.FlapDroppedChunks += lf.FlapDrops
	}
	for _, nf := range in.nics {
		t.NICDroppedChunks += nf.DroppedChunks
		t.NICDroppedBytes += nf.DroppedBytes
	}
	for _, nf := range in.nodes {
		if nf.factor != 1 {
			t.SlowNodes++
		}
	}
	return t
}

// ---- per-entity fault state ----

// LinkFault decides, chunk by chunk, whether one link direction eats a
// transmission. The link layer consults it inside Send.
type LinkFault struct {
	plan      *Plan
	r         *rng.Rand
	flapPhase time.Duration
	txIdx     uint64 // offered chunks, for mask mode
	bad       bool   // Gilbert-Elliott state

	// Counters (exported for metrics and tests).
	DroppedChunks int64
	DroppedBytes  int64
	FlapDrops     int64
}

// Drop reports whether the chunk offered now, spanning frames wire
// frames and carrying payloadBytes, is lost. Flap windows are checked
// first (a down link drops everything), then the exact mask schedule if
// configured, then the probabilistic frame-loss models.
func (lf *LinkFault) Drop(now sim.Time, frames, payloadBytes int) bool {
	p := lf.plan
	if p.FlapPeriod > 0 && p.FlapDown > 0 {
		if (time.Duration(now)+lf.flapPhase)%p.FlapPeriod < p.FlapDown {
			lf.FlapDrops++
			return lf.drop(payloadBytes)
		}
	}
	if p.MaskBits > 0 {
		bit := lf.txIdx % uint64(p.MaskBits)
		lf.txIdx++
		if p.DropMask&(1<<bit) != 0 {
			return lf.drop(payloadBytes)
		}
		return false
	}
	rate := p.LossRate
	if p.BurstLossRate > 0 {
		if lf.bad {
			if lf.r.Float64() < p.PBadGood {
				lf.bad = false
			}
		} else if p.PGoodBad > 0 && lf.r.Float64() < p.PGoodBad {
			lf.bad = true
		}
		if lf.bad {
			rate = p.BurstLossRate
		}
	}
	if rate <= 0 {
		return false
	}
	// A chunk is one wire burst; it is lost if any of its frames is.
	if lf.r.Float64() < 1-math.Pow(1-rate, float64(frames)) {
		return lf.drop(payloadBytes)
	}
	return false
}

func (lf *LinkFault) drop(payloadBytes int) bool {
	lf.DroppedChunks++
	lf.DroppedBytes += int64(payloadBytes)
	return true
}

// NICFault models a bounded receive ring: frames whose softirq
// processing has not drained occupy slots, and a chunk that does not fit
// is dropped before any protocol work is priced.
type NICFault struct {
	plan    *Plan
	pending int // frames admitted but not yet drained

	DroppedChunks int64
	DroppedBytes  int64
}

// Admit reserves ring slots for a chunk's frames, or reports overflow.
func (nf *NICFault) Admit(frames, payloadBytes int) bool {
	if limit := nf.plan.RxRingFrames; limit > 0 && nf.pending+frames > limit {
		nf.DroppedChunks++
		nf.DroppedBytes += int64(payloadBytes)
		return false
	}
	nf.pending += frames
	return true
}

// Drain releases the ring slots of a chunk whose softirq work finished.
func (nf *NICFault) Drain(frames int) {
	nf.pending -= frames
	if nf.pending < 0 {
		panic("fault: NIC ring drained below zero")
	}
}

// NodeFault scales a node's CPU work. Factor 1 (the common case, and
// every node under a benign plan) is skipped exactly so durations pass
// through bit-identical.
type NodeFault struct {
	factor float64
}

// Scale stretches one work item's duration by the node's slowdown.
func (nf *NodeFault) Scale(d time.Duration) time.Duration {
	if nf.factor == 1 {
		return d
	}
	return time.Duration(float64(d) * nf.factor)
}
