package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Profiler attributes simulated busy time to cost-model sites. Unlike a
// wall-clock sampling profiler it is exact: every nanosecond a core
// model enqueues is added to its site at pricing time, so the report's
// self-time columns sum to the run's total simulated CPU time, and the
// memory-pricing detail explains where inside those sites the cache
// model spent it.
//
// Adds are atomic, so one Profiler can aggregate a whole sweep even when
// the points run on parallel workers; the totals are order-independent.
type Profiler struct {
	self [numSites]atomic.Int64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// Add attributes d of simulated time to site.
func (p *Profiler) Add(site Site, d time.Duration) {
	if d != 0 {
		p.self[site].Add(int64(d))
	}
}

// Self returns the accumulated self time of one site.
func (p *Profiler) Self(site Site) time.Duration {
	return time.Duration(p.self[site].Load())
}

// CPUTotal returns the total simulated CPU time across the core-work
// sites (the memory-pricing detail group is a breakdown, not an
// addition, so it is excluded).
func (p *Profiler) CPUTotal() time.Duration {
	var total time.Duration
	for s := Site(0); s < firstDetailSite; s++ {
		total += p.Self(s)
	}
	return total
}

// siteRow is one rendered report line.
type siteRow struct {
	site Site
	d    time.Duration
}

// group collects and sorts the non-zero sites in [lo, hi).
func (p *Profiler) group(lo, hi Site) []siteRow {
	rows := make([]siteRow, 0, hi-lo)
	for s := lo; s < hi; s++ {
		if d := p.Self(s); d > 0 {
			rows = append(rows, siteRow{site: s, d: d})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		return rows[i].site < rows[j].site
	})
	return rows
}

// Report renders the sorted self-time table: first the CPU sites (whose
// percentages sum to 100% of simulated busy time), then the
// memory-pricing detail that breaks the copy/header work down by cache
// behaviour.
func (p *Profiler) Report() string {
	var b strings.Builder
	total := p.CPUTotal()
	fmt.Fprintf(&b, "simulated-CPU profile: %.3f ms busy\n", float64(total)/1e6)
	fmt.Fprintf(&b, "%-15s %12s %7s\n", "site", "self(ms)", "cpu%")
	for _, r := range p.group(0, firstDetailSite) {
		pctOf := 0.0
		if total > 0 {
			pctOf = 100 * float64(r.d) / float64(total)
		}
		fmt.Fprintf(&b, "%-15s %12.3f %6.1f%%\n", r.site.String(), float64(r.d)/1e6, pctOf)
	}
	detail := p.group(firstDetailSite, numSites)
	if len(detail) > 0 {
		fmt.Fprintf(&b, "memory-pricing detail (inside the sites above):\n")
		for _, r := range detail {
			pctOf := 0.0
			if total > 0 {
				pctOf = 100 * float64(r.d) / float64(total)
			}
			fmt.Fprintf(&b, "%-15s %12.3f %6.1f%%\n", r.site.String(), float64(r.d)/1e6, pctOf)
		}
	}
	return b.String()
}
