package trace

import (
	"strconv"
	"sync"
	"time"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/perf"
)

// Sweep is one FindBestCommunity sweep as a run's SweepLog records it: the
// counters a RunFold keeps, the kernel work the Tables III/IV model prices,
// and the busy time that weights the run's mean imbalance. Its wall times,
// codelength and moves live on the sweep's spans.
type Sweep struct {
	Level     int             // hierarchy level (0 = vertex level)
	Stats     accum.Stats     // accumulator events during the sweep
	Work      perf.KernelWork // non-accumulator kernel work during the sweep
	Imbalance float64         // worker busy-time imbalance (max/mean)
	Busy      time.Duration   // worker busy time summed over the pool
	Steals    uint64          // blocks taken from another worker's span
}

// RunFold is the running total of every folded run's accumulator events and
// sweep gauges, safe for concurrent use. A run folds in one critical
// section, so a reader never sees half of one.
type RunFold struct {
	mu        sync.Mutex
	total     accum.Stats   // run totals
	levels    []accum.Stats // per hierarchy level, summed over its sweeps
	sweeps    uint64
	imbalance float64 // sum of per-sweep imbalance
	steals    uint64  // sum of per-sweep stolen blocks
}

// Add folds one run: its total accumulator stats and its sweeps.
func (f *RunFold) Add(total accum.Stats, sweeps []Sweep) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total.Add(total)
	for _, sw := range sweeps {
		for len(f.levels) <= sw.Level {
			f.levels = append(f.levels, accum.Stats{})
		}
		f.levels[sw.Level].Add(sw.Stats)
		f.sweeps++
		f.imbalance += sw.Imbalance
		f.steals += sw.Steals
	}
}

// accumEvents names the accum.Stats counters exported as events_total
// series; perLevel marks the CAM and HashGraph counters that also get a
// LevelN/ series. Every one is a sum over per-vertex accumulator sessions
// and so identical across worker counts and steal schedules — except
// ChainHops and Rehashes, which depend on each worker's private table-growth
// history; they are exported for capacity tuning but must never enter a
// determinism comparison.
var accumEvents = []struct {
	name     string
	perLevel bool
	get      func(accum.Stats) uint64
}{
	{"AccumAccumulates", false, func(s accum.Stats) uint64 { return s.Accumulates }},
	{"AccumLookups", false, func(s accum.Stats) uint64 { return s.Lookups }},
	{"AccumHits", true, func(s accum.Stats) uint64 { return s.Hits }},
	{"AccumMisses", true, func(s accum.Stats) uint64 { return s.Misses }},
	{"AccumChainHops", false, func(s accum.Stats) uint64 { return s.ChainHops }},
	{"AccumInserts", false, func(s accum.Stats) uint64 { return s.Inserts }},
	{"AccumRehashes", false, func(s accum.Stats) uint64 { return s.Rehashes }},
	{"AccumEvictions", true, func(s accum.Stats) uint64 { return s.Evictions }},
	{"AccumOverflowKV", true, func(s accum.Stats) uint64 { return s.OverflowKV }},
	{"AccumMergedKV", false, func(s accum.Stats) uint64 { return s.MergedKV }},
	{"AccumBinnedKV", true, func(s accum.Stats) uint64 { return s.BinnedKV }},
	{"AccumScatteredKV", true, func(s accum.Stats) uint64 { return s.ScatteredKV }},
	{"AccumBinMergedKV", true, func(s accum.Stats) uint64 { return s.BinMergedKV }},
	{"AccumGathers", false, func(s accum.Stats) uint64 { return s.Gathers }},
	{"AccumGatheredKV", false, func(s accum.Stats) uint64 { return s.GatheredKV }},
	{"AccumResets", false, func(s accum.Stats) uint64 { return s.Resets }},
}

// AddSeries writes the fold into counters and gauges, keyed by series name
// without a namespace: nonzero events as events_total{event="AccumHits"} and
// events_total{event="Level0/AccumHits"}, and, once a sweep ran, the
// SweepImbalance and SweepSteals gauge sums and sample counts (one sample
// per sweep; a scraper divides for the mean).
func (f *RunFold) AddSeries(counters map[string]uint64, gauges map[string]float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range accumEvents {
		if v := e.get(f.total); v > 0 {
			counters[`events_total{event="`+e.name+`"}`] = v
		}
		for level, st := range f.levels {
			if v := e.get(st); e.perLevel && v > 0 {
				counters[`events_total{event="Level`+strconv.Itoa(level)+"/"+e.name+`"}`] = v
			}
		}
	}
	if f.sweeps == 0 {
		return
	}
	gauges[`gauge_sum{gauge="SweepImbalance"}`] = f.imbalance
	gauges[`gauge_sum{gauge="SweepSteals"}`] = float64(f.steals)
	counters[`gauge_samples_total{gauge="SweepImbalance"}`] = f.sweeps
	counters[`gauge_samples_total{gauge="SweepSteals"}`] = f.sweeps
}
