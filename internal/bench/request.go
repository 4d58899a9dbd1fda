package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"

	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
)

// Request is the wire form of one benchmark job: the same surface as
// Config (seed, scale, per-job point parallelism, invariant checking,
// fault spec, cost overrides) plus the experiment selection, as accepted
// by the daemon's POST /v1/jobs and decodable from any JSON source.
// Zero values mean the CLI defaults: every runner, seed 1, scale 1.
type Request struct {
	// Runners selects experiments by id (see Experiments); empty means
	// all of them, in registry order.
	Runners []string `json:"runners,omitempty"`
	// Seed is the simulation seed (0 = 1, the CLI default).
	Seed uint64 `json:"seed,omitempty"`
	// Scale shortens runs shape-preservingly (0 = 1, paper-sized).
	Scale float64 `json:"scale,omitempty"`
	// Parallel bounds concurrent sweep points within the job
	// (0 = one worker per core, 1 = sequential).
	Parallel int `json:"parallel,omitempty"`
	// Check runs every simulation under the invariant checker; Strict
	// upgrades it to fail-fast.
	Check  bool `json:"check,omitempty"`
	Strict bool `json:"strict,omitempty"`
	// Fault is a fault-plan spec in the internal/fault grammar, e.g.
	// "loss=0.001,flap=10ms/1ms".
	Fault string `json:"fault,omitempty"`
	// Costs overrides cost-model parameters by field name (durations in
	// nanoseconds, bools as 0/1).
	Costs []CostOverride `json:"costs,omitempty"`
}

// ErrUnknownExperiment is wrapped by the error Validate and Config
// return for a runner id that names no experiment.
var ErrUnknownExperiment = errors.New("unknown experiment")

// DecodeRequest reads one JSON-encoded Request, rejecting unknown
// fields so a typoed parameter fails loudly instead of silently running
// the default configuration.
func DecodeRequest(r io.Reader) (Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q Request
	if err := dec.Decode(&q); err != nil {
		return Request{}, fmt.Errorf("decoding job request: %w", err)
	}
	return q, nil
}

// Validate checks the request without building anything: runner ids
// exist, numeric ranges are sane, the fault spec parses, and the cost
// overrides name real numeric fields and leave a self-consistent
// parameter set. maxScale bounds Scale (<= 0 means no bound) so a
// service can refuse jobs larger than it is willing to simulate.
func (q Request) Validate(maxScale float64) error {
	for _, id := range q.Runners {
		if _, ok := Find(id); !ok {
			return fmt.Errorf("%w %q", ErrUnknownExperiment, id)
		}
	}
	if q.Scale < 0 || math.IsNaN(q.Scale) || math.IsInf(q.Scale, 0) {
		return fmt.Errorf("scale %v out of range", q.Scale)
	}
	if maxScale > 0 && q.Scale > maxScale {
		return fmt.Errorf("scale %g exceeds the maximum %g", q.Scale, maxScale)
	}
	if q.Parallel < 0 {
		return fmt.Errorf("parallel %d out of range", q.Parallel)
	}
	if q.Fault != "" {
		if _, err := fault.ParseSpec(q.Fault); err != nil {
			return fmt.Errorf("fault spec: %w", err)
		}
	}
	p := cost.Default()
	if err := ApplyCostOverrides(p, q.Costs); err != nil {
		return err
	}
	if len(q.Costs) > 0 {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("cost overrides leave invalid parameters: %w", err)
		}
	}
	return nil
}

// Config materializes the request: the resolved Config (Cache, Obs and
// Ctx left for the caller to attach) and the selected runners. It
// re-validates, so a Request received over the wire can be materialized
// directly.
func (q Request) Config(maxScale float64) (Config, []Runner, error) {
	if err := q.Validate(maxScale); err != nil {
		return Config{}, nil, err
	}
	cfg := Config{
		Seed:     q.Seed,
		Scale:    q.Scale,
		Parallel: q.Parallel,
		Check:    q.Check,
		Strict:   q.Strict,
		Costs:    q.Costs,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if q.Fault != "" {
		plan, err := fault.ParseSpec(q.Fault)
		if err != nil {
			return Config{}, nil, fmt.Errorf("fault spec: %w", err)
		}
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		cfg.Fault = &plan
	}
	if len(q.Runners) == 0 {
		return cfg, Experiments(), nil
	}
	runners := make([]Runner, len(q.Runners))
	for i, id := range q.Runners {
		runners[i], _ = Find(id) // Validate vouched for every id
	}
	return cfg, runners, nil
}

// ApplyCostOverrides sets each named cost.Params field to its override
// value: integer fields (including time.Durations, which read Value as
// nanoseconds) round, bools read Value != 0. Unknown or non-numeric
// fields error, naming the valid fields.
func ApplyCostOverrides(p *cost.Params, overrides []CostOverride) error {
	v := reflect.ValueOf(p).Elem()
	for _, o := range overrides {
		f := v.FieldByName(o.Field)
		if !f.IsValid() {
			return fmt.Errorf("unknown cost.Params field %q (valid: %s)",
				o.Field, strings.Join(costFieldNames(), " "))
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return fmt.Errorf("cost.Params field %q: value %v is not finite", o.Field, o.Value)
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(math.Round(o.Value)))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			if o.Value < 0 {
				return fmt.Errorf("cost.Params field %q: negative value %v for unsigned field", o.Field, o.Value)
			}
			f.SetUint(uint64(math.Round(o.Value)))
		case reflect.Float32, reflect.Float64:
			f.SetFloat(o.Value)
		case reflect.Bool:
			f.SetBool(o.Value != 0)
		default:
			return fmt.Errorf("cost.Params field %q (%s) is not overridable", o.Field, f.Kind())
		}
	}
	return nil
}

// costFieldNames lists the overridable cost.Params fields.
func costFieldNames() []string {
	rt := reflect.TypeOf(cost.Params{})
	names := make([]string, 0, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		switch rt.Field(i).Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Bool:
			names = append(names, rt.Field(i).Name)
		}
	}
	return names
}
