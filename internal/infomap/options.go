// Package infomap implements the paper's core system: a shared-memory
// parallel Infomap community-detection algorithm with the kernel structure of
// HyPC-Map (PageRank, FindBestCommunity, Convert2SuperNode, UpdateMembers)
// and a pluggable sparse accumulator so the identical FindBestCommunity
// kernel runs over either the software hash table Baseline or the ASA
// accelerator model — the comparison that constitutes the paper's evaluation.
package infomap

import (
	"fmt"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/hashgraph"
	"github.com/asamap/asamap/internal/hashtab"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/trace"
)

// Teleportation selects how directed-graph teleportation enters the code.
type Teleportation int

const (
	// TeleportRecorded encodes teleportation steps (the original 2008 map
	// equation and the model HyPC-Map/RelaxMap implement).
	TeleportRecorded Teleportation = iota
	// TeleportUnrecorded uses teleportation only to make the walk ergodic;
	// the code prices arc flows alone (modern Infomap's default).
	TeleportUnrecorded
)

// String names the teleportation model.
func (t Teleportation) String() string {
	if t == TeleportUnrecorded {
		return "unrecorded"
	}
	return "recorded"
}

// ParseTeleportation inverts Teleportation.String.
func ParseTeleportation(s string) (Teleportation, error) {
	for _, t := range []Teleportation{TeleportRecorded, TeleportUnrecorded} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown teleport %q (want recorded|unrecorded)", s)
}

// AccumKind selects the sparse-accumulation backend of the
// FindBestCommunity kernel.
type AccumKind int

const (
	// Baseline is the explicit chained software hash table modeled on
	// std::unordered_map — the paper's Baseline.
	Baseline AccumKind = iota
	// ASA is the content-addressable-memory accelerator model with LRU
	// eviction and overflow merge — the paper's contribution.
	ASA
	// GoMap is Go's builtin map, used as a correctness oracle and an
	// "idiomatic Go" reference point.
	GoMap
	// HashGraph is the probe-free counting-sort/prefix-sum accumulator
	// (package hashgraph): session appends resolved in two branch-light
	// passes, no chains, no probing, no rehash churn.
	HashGraph
)

// String names the backend as used in reports.
func (k AccumKind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case ASA:
		return "asa"
	case GoMap:
		return "gomap"
	case HashGraph:
		return "hashgraph"
	}
	return fmt.Sprintf("AccumKind(%d)", int(k))
}

// ParseAccumKind inverts AccumKind.String.
func ParseAccumKind(s string) (AccumKind, error) {
	for k := Baseline; k <= HashGraph; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown accum %q (want baseline|asa|gomap|hashgraph)", s)
}

// ModelName names the backend as perf.Model.AccumCost prices it: the
// Baseline is the modeled software hash table "softhash", every other
// backend is priced under its String name.
func (k AccumKind) ModelName() string {
	if k == Baseline {
		return "softhash"
	}
	return k.String()
}

// Options configures a run. The zero value is not valid; start from
// DefaultOptions.
type Options struct {
	// Kind selects the accumulator backend.
	Kind AccumKind
	// ASAConfig configures the per-worker CAM when Kind == ASA.
	ASAConfig asa.Config
	// Workers is the number of parallel workers ("cores"); each gets its own
	// pair of core-local accumulators, mirroring the tid parameter of the
	// paper's ASA interface. Zero means runtime.GOMAXPROCS(0) — all CPUs
	// available to the process; negative values are invalid. For a fixed
	// Seed the result is bit-identical across any Workers value.
	Workers int
	// MaxSweeps bounds the vertex-level optimization sweeps per level.
	MaxSweeps int
	// MinImprovement is the codelength gain (bits) below which a level's
	// sweep loop stops.
	MinImprovement float64
	// MaxLevels bounds the super-node contraction hierarchy depth.
	MaxLevels int
	// OuterIters bounds the outer tune loop: each iteration fine-tunes leaf
	// vertices from the current partition, then rebuilds the super-node
	// hierarchy — the core-loop structure of the reference Infomap that
	// keeps the greedy from freezing early local merges into the result.
	OuterIters int
	// Seed makes vertex visitation order (and hence the run) deterministic.
	Seed uint64
	// Damping is the random-walk continuation probability for directed
	// graphs (teleportation is 1-Damping).
	Damping float64
	// Teleport selects recorded (paper/HyPC-Map) or unrecorded (modern
	// Infomap default) teleportation for directed graphs.
	Teleport Teleportation
	// WarmStart, when non-nil, seeds the run from a parent version's
	// partition instead of singletons: WarmStart[v] is vertex v's starting
	// module and len(WarmStart) must equal the graph's vertex count (module
	// IDs need not be dense; they are compacted on entry). This is the
	// incremental-detection path: after a delta batch, re-detection starts
	// where the parent version converged. The seed partition is
	// result-relevant, so it joins the options fingerprint.
	WarmStart []uint32
	// FrontierSeeds are the vertices a delta batch touched. When WarmStart
	// is set and FrontierSeeds is non-empty, only vertices within
	// FrontierHops hops of a seed are re-optimized at the leaf level; the
	// rest stay frozen in their warm-start modules (they still merge at
	// super levels). Empty FrontierSeeds means no restriction — the whole
	// graph re-optimizes from the warm seed. Setting FrontierSeeds without
	// WarmStart is an error.
	FrontierSeeds []uint32
	// FrontierHops is the k of the k-hop frontier around FrontierSeeds.
	// 0 re-optimizes the touched vertices alone; values large enough to
	// cover the whole graph make the run byte-identical to an unrestricted
	// warm start (the contract the differential tier pins). Ignored unless
	// WarmStart and FrontierSeeds are both set; negative is an error.
	FrontierHops int
	// Trace, when non-nil, is the parent span under which the run emits its
	// hierarchical span tree (run → level → sweep → kernel, plus volatile
	// per-worker spans). The serving layer passes its per-request root span;
	// the CLI passes a span from a fresh obs.Tracer. Nil disables tracing at
	// zero cost — spans are nil and every operation no-ops. Tracing is pure
	// telemetry and never influences the partition, so Trace is excluded
	// from Fingerprint.
	Trace *obs.Span
}

// DefaultOptions returns the standard configuration: Baseline accumulator,
// one worker, 8KB LRU CAM for ASA runs, damping 0.85.
func DefaultOptions() Options {
	return Options{
		Kind:           Baseline,
		ASAConfig:      asa.DefaultConfig(),
		Workers:        1,
		MaxSweeps:      20,
		MinImprovement: 1e-9,
		MaxLevels:      30,
		OuterIters:     4,
		Seed:           1,
		Damping:        0.85,
	}
}

// WarmSeed extends a parent partition of modules modules to a warm seed over
// n vertices: the vertices a delta added (versions never shrink the vertex
// set) each start as a fresh singleton module.
func WarmSeed(parent []uint32, modules, n int) []uint32 {
	seed := make([]uint32, n)
	copy(seed, parent)
	next := uint32(modules)
	for j := len(parent); j < n; j++ {
		seed[j] = next
		next++
	}
	return seed
}

// Validate reports the first out-of-range or unknown option value, the same
// check Run applies before doing any work. Callers that accept options from
// outside the program use it to reject them up front.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("infomap: Workers %d < 0 (0 means all CPUs)", o.Workers)
	}
	if o.MaxSweeps < 1 {
		return fmt.Errorf("infomap: MaxSweeps %d < 1", o.MaxSweeps)
	}
	if o.MaxLevels < 1 {
		return fmt.Errorf("infomap: MaxLevels %d < 1", o.MaxLevels)
	}
	if o.OuterIters < 1 {
		return fmt.Errorf("infomap: OuterIters %d < 1", o.OuterIters)
	}
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("infomap: Damping %g out of (0,1)", o.Damping)
	}
	if o.MinImprovement < 0 {
		return fmt.Errorf("infomap: MinImprovement %g < 0", o.MinImprovement)
	}
	switch o.Kind {
	case Baseline, ASA, GoMap, HashGraph:
	default:
		return fmt.Errorf("infomap: unknown accumulator kind %d", int(o.Kind))
	}
	if o.FrontierHops < 0 {
		return fmt.Errorf("infomap: FrontierHops %d < 0", o.FrontierHops)
	}
	if o.WarmStart == nil && len(o.FrontierSeeds) > 0 {
		return fmt.Errorf("infomap: FrontierSeeds set without WarmStart")
	}
	return nil
}

// newAccumulator constructs one accumulator instance for the configured kind.
// hint is the expected maximum session size — the graph's largest degree —
// so the software tables start big enough that large-hub graphs pay no
// rehash/growth churn (hint <= 0 falls back to a small default). The ASA CAM
// ignores it: its capacity is the modeled hardware's, not the workload's.
func (o Options) newAccumulator(hint int) (accum.Accumulator, error) {
	if hint <= 0 {
		hint = 64
	}
	switch o.Kind {
	case Baseline:
		return hashtab.New(hint), nil
	case ASA:
		return asa.New(o.ASAConfig)
	case GoMap:
		return accum.NewMap(hint), nil
	case HashGraph:
		return hashgraph.New(hint), nil
	}
	return nil, fmt.Errorf("infomap: unknown accumulator kind %d", int(o.Kind))
}

// WorkerStats carries the per-worker ("per core") event counts that the
// paper's Figures 9–11 plot.
type WorkerStats struct {
	Accum accum.Stats     // accumulator events (both tables of the worker)
	Work  perf.KernelWork // non-accumulator kernel work
}

// Result is the outcome of a Run.
type Result struct {
	// Membership assigns each original vertex its final module (dense IDs).
	Membership []uint32
	// NumModules is the number of detected communities.
	NumModules int
	// Codelength is the final two-level map equation value L(M) in bits,
	// recomputed from scratch on the base flow for the final partition.
	Codelength float64
	// OneLevelCodelength is the no-structure reference entropy in bits.
	OneLevelCodelength float64
	// Levels is the number of hierarchy levels processed (>=1).
	Levels int
	// Sweeps is the total number of optimization sweeps across levels.
	Sweeps int
	// Moves is the total number of applied module changes.
	Moves uint64
	// PerWorker holds event counts per worker, index = worker id.
	PerWorker []WorkerStats
	// SweepLog records every optimization sweep in execution order. Its
	// wall times are the run's sweep and kernel spans.
	SweepLog []trace.Sweep
	// Steals is the total number of blocks executed by a worker other than
	// the owner of their span, summed over all sweeps.
	Steals uint64
	// FrontierSize is the number of leaf vertices the warm-start frontier
	// allowed to re-optimize (the whole graph for an unrestricted warm
	// start; 0 for a cold run).
	FrontierSize int
	// FrozenVertices is the number of leaf vertices the warm-start frontier
	// froze in their seeded modules (0 for cold or unrestricted runs).
	FrozenVertices int
}

// TotalStats sums the accumulator events over all workers.
func (r *Result) TotalStats() accum.Stats {
	var s accum.Stats
	for _, w := range r.PerWorker {
		s.Add(w.Accum)
	}
	return s
}

// MeanImbalance returns the busy-time-weighted mean of the per-sweep worker
// imbalance ratio (max busy / mean busy; 1.0 is perfect balance). Weighting
// by sweep busy time keeps the many near-empty convergence-tail sweeps from
// drowning out the expensive early ones.
func (r *Result) MeanImbalance() float64 {
	var num, den float64
	for _, s := range r.SweepLog {
		w := float64(s.Busy)
		num += s.Imbalance * w
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// TotalWork sums the kernel work over all workers.
func (r *Result) TotalWork() perf.KernelWork {
	var w perf.KernelWork
	for _, ws := range r.PerWorker {
		w.Add(ws.Work)
	}
	return w
}
