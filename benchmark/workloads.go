package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
)

// workload is one set of inputs the benchmark runs. Every workload is
// executed in its own child process; see child.go.
type workload struct {
	name string
	// ids are the figures one round runs, in order (simulated workloads).
	ids []string
	// smokeIDs replace ids in a smoke run: the data-center figures cost
	// seconds at any scale.
	smokeIDs []string
	// scale is the simulation scale of those figures.
	scale float64
	// serve marks the daemon workload; its round is a fixed job sequence.
	serve bool
}

// workloads lists the benchmark's workloads. Each stresses different
// layers; the README's tables say which metric each should move.
var workloads = []workload{
	{
		name: "stream",
		ids: []string{"fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig7a", "fig7b",
			"ablcoal", "ablrss", "fault_loss"},
		smokeIDs: []string{"fig3a"},
		scale:    0.25,
	},
	{
		name:     "datacenter",
		ids:      []string{"fig8a", "fig8b", "fig9", "ext3tier"},
		smokeIDs: []string{"ext3tier"},
		scale:    0.1,
	},
	{
		name:     "pvfs",
		ids:      []string{"fig10a", "fig11a", "fig12"},
		smokeIDs: []string{"fig10a"},
		scale:    0.25,
	},
	{
		name:  "serve",
		ids:   serveRunners,
		serve: true,
	},
}

// findWorkload returns the named workload, shrunk when smoke is set.
func findWorkload(name string, smoke bool) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			if smoke && w.smokeIDs != nil {
				w.ids, w.scale = w.smokeIDs, 0.02
			}
			return w, true
		}
	}
	return workload{}, false
}

// The serve workload's catalogue: every runner at catalogueSeeds
// seed-derived seeds, all at catalogueScale, one point at a time.
var serveRunners = []string{"fig6", "extipc", "ablpin", "fig3a", "fig7a"}

const (
	catalogueSeeds = 20
	catalogueScale = 0.05
	zipfAlpha      = 0.9
	// serveClients is the closed loop's concurrency: one connection per
	// host CPU of the two-core box the benchmark targets.
	serveClients = 2
	serveWorkers = 2
	// serveCacheEntries and serveCacheBytes bound the daemon's point
	// cache well below the catalogue's ~2000 points, so hits interleave
	// with misses, inserts and evictions.
	serveCacheEntries = 256
	serveCacheBytes   = 64 << 20
)

// catalogueEntry is one distinct job configuration.
type catalogueEntry struct {
	Runner string
	Seed   uint64
}

// body is the job's POST /v1/jobs request.
func (e catalogueEntry) body() string {
	return fmt.Sprintf(`{"runners":[%q],"seed":%d,"scale":%g,"parallel":1}`,
		e.Runner, e.Seed, catalogueScale)
}

// serveInputs is everything the serve workload generates from its seed:
// the catalogue and the job sequence one round replays.
type serveInputs struct {
	catalogue []catalogueEntry
	jobs      []int // catalogue indexes, in submission order
}

// makeServeInputs builds the catalogue and an n-job sequence with a
// Zipf(zipfAlpha) popularity over it. The seed picks the simulation seed
// of every catalogue entry, so each seed submits different jobs; the same
// seed gives the same inputs. What the daemon's cache sees is the same
// for every seed, so the seed changes the inputs but not the amount of
// work (runners differ in cost per miss by 15x, and LRU hits depend on
// the order of requests):
//   - popularity ranks go round-robin over the runners;
//   - draws are stratified, job i taking the Zipf quantile (i+0.5)/n;
//   - the ranks are shuffled into one fixed order.
func makeServeInputs(seed uint64, n int) serveInputs {
	r := rand.New(rand.NewPCG(seed, 0x10a7be9c))
	var in serveInputs
	for k := 0; k < len(serveRunners)*catalogueSeeds; k++ {
		id := serveRunners[k%len(serveRunners)]
		for {
			e := catalogueEntry{Runner: id, Seed: 1 + r.Uint64N(1_000_000)}
			if !slices.Contains(in.catalogue, e) {
				in.catalogue = append(in.catalogue, e) // entry k has popularity rank k
				break
			}
		}
	}
	cdf := zipfCDF(len(in.catalogue), zipfAlpha)
	in.jobs = make([]int, n)
	for i := range in.jobs {
		in.jobs[i] = min(sort.SearchFloat64s(cdf, (float64(i)+0.5)/float64(n)), len(cdf)-1)
	}
	order := rand.New(rand.NewPCG(1, 0x10a7be9c))
	order.Shuffle(n, func(i, j int) { in.jobs[i], in.jobs[j] = in.jobs[j], in.jobs[i] })
	return in
}

// zipfCDF returns the cumulative distribution of ranks 1..n with
// P(k) proportional to 1/k^alpha. math/rand's Zipf needs alpha > 1.
func zipfCDF(n int, alpha float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), alpha)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}
