// Package trace holds the paper's kernel names, the per-run counters and
// gauges the serving layer exports on /metrics, and fixed-bucket latency
// histograms. Per-kernel wall time is not recorded here: it lives in the
// obs span tree and the tracer's per-name span totals.
package trace

import "sync"

// Kernel names matching the paper's decomposition of HyPC-Map.
const (
	KernelPageRank          = "PageRank"
	KernelFindBestCommunity = "FindBestCommunity"
	KernelConvert2SuperNode = "Convert2SuperNode"
	KernelUpdateMembers     = "UpdateMembers"
)

// Kernels returns the four kernel names in name order, the order /metrics
// and infomap -stats list them in.
func Kernels() []string {
	return []string{KernelConvert2SuperNode, KernelFindBestCommunity, KernelPageRank, KernelUpdateMembers}
}

// Gauge names recorded by the sweep scheduler (dimensionless samples,
// aggregated as means rather than sums).
const (
	// GaugeSweepImbalance is the per-sweep worker busy-time imbalance ratio
	// (max/mean) of the FindBestCommunity dispatch.
	GaugeSweepImbalance = "SweepImbalance"
	// GaugeSweepSteals is the number of stolen blocks per sweep.
	GaugeSweepSteals = "SweepSteals"
)

// Breakdown accumulates dimensionless gauge samples and monotone event
// counters. It is safe for concurrent Observe/AddEvents.
type Breakdown struct {
	mu     sync.Mutex
	gauges map[string]gauge
	events map[string]uint64
}

// gauge is a running sum/count of dimensionless samples.
type gauge struct {
	sum   float64
	count uint64
}

// NewBreakdown returns an empty Breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{
		gauges: make(map[string]gauge),
		events: make(map[string]uint64),
	}
}

// Observe records one sample of the named gauge. Gauges are dimensionless
// per-event ratios (e.g. a sweep's worker imbalance); they aggregate as
// means, not sums.
func (b *Breakdown) Observe(name string, v float64) {
	b.mu.Lock()
	g := b.gauges[name]
	g.sum += v
	g.count++
	b.gauges[name] = g
	b.mu.Unlock()
}

// AddEvents adds n occurrences of the named event counter. Event counters
// carry the accumulator telemetry of the paper's evaluation — CAM hits,
// misses, evictions, overflow pairs — to /metrics; they are monotone sums,
// never means.
func (b *Breakdown) AddEvents(name string, n uint64) {
	if n == 0 {
		return
	}
	b.mu.Lock()
	b.events[name] += n
	b.mu.Unlock()
}

// Merge adds all of other's gauges and events into b.
func (b *Breakdown) Merge(other *Breakdown) {
	other.mu.Lock()
	gauges := make(map[string]gauge, len(other.gauges))
	events := make(map[string]uint64, len(other.events))
	for k, v := range other.gauges {
		gauges[k] = v
	}
	for k, v := range other.events {
		events[k] = v
	}
	other.mu.Unlock()

	b.mu.Lock()
	// Per-key merge: each key's sum/count pair is read-modify-written
	// independently, so iteration order cannot change any final value.
	for k, v := range gauges { //asalint:ordered independent keyed merges commute
		g := b.gauges[k]
		g.sum += v.sum
		g.count += v.count
		b.gauges[k] = g
	}
	for k, v := range events {
		b.events[k] += v
	}
	b.mu.Unlock()
}
