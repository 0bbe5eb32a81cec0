// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation section (plus the extension/ablation studies
// listed in DESIGN.md). Each runner regenerates its artifact as a text table
// with the same rows/series the paper reports, printed to an io.Writer, so
// `asabench -exp all` reproduces the full evaluation and EXPERIMENTS.md can
// record paper-vs-measured values side by side.
package bench

import (
	"fmt"
	"io"
	"sync"

	"github.com/asamap/asamap/internal/dataset"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/perf"
)

// Config controls the harness.
type Config struct {
	// Seed drives every generator and run.
	Seed uint64
	// Quick shrinks the replicas aggressively (for tests and smoke runs).
	Quick bool
	// ScaleOverride, when > 0, replaces each network's default scale divisor.
	ScaleOverride int
	// Workers is the core-count sweep for multi-core experiments.
	Workers []int
	// JSONPath, when non-empty, is where experiments that emit a
	// machine-readable artifact (currently "sched") write their JSON.
	JSONPath string
	// TraceOut, when non-empty, is where experiments that emit a Chrome
	// trace-event artifact (currently "sched") write it. One file holds a
	// span tree per (workers, policy) run, viewable in chrome://tracing or
	// Perfetto.
	TraceOut string
}

// DefaultConfig returns the full-size configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Workers: []int{1, 2, 4, 8}}
}

// QuickConfig returns a configuration small enough for unit tests.
func QuickConfig() Config {
	return Config{Seed: 1, Quick: true, Workers: []int{1, 2, 4}}
}

// scaleFor returns the replica scale divisor for a network under cfg.
func (cfg Config) scaleFor(spec dataset.Spec) int {
	if cfg.ScaleOverride > 0 {
		return cfg.ScaleOverride
	}
	if cfg.Quick {
		return spec.DefaultScale * 16
	}
	return spec.DefaultScale
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string // e.g. "table5", "fig6"
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// Experiments lists every runner in paper order, extensions last.
var Experiments = []Experiment{
	{"table1", "Table I: network datasets", runTable1},
	{"fig2", "Fig 2: kernel breakdown and hash share", runFig2},
	{"fig4", "Fig 4: power-law degree distributions", runFig4},
	{"fig5", "Fig 5: CAM capacity coverage", runFig5},
	{"table2", "Table II: machine configurations", runTable2},
	{"table3", "Table III: native vs Baseline, 1 core", runTable3},
	{"table4", "Table IV: native vs Baseline, 2 cores", runTable4},
	{"table5", "Table V: hash-operation time, Baseline vs ASA", runTable5},
	{"fig6", "Fig 6: ASA speedup of hash operations", runFig6},
	{"fig7", "Fig 7: multi-core FindBestCommunity breakdown", runFig7},
	{"fig8", "Fig 8: instructions, mispredictions, CPI", runFig8},
	{"fig9", "Fig 9: per-core instructions across cores", runFig9},
	{"fig10", "Fig 10: per-core branch mispredictions across cores", runFig10},
	{"fig11", "Fig 11: per-core CPI across cores", runFig11},
	{"lfr", "X1: solution quality on LFR vs Louvain", runLFR},
	{"spgemm", "X2: SpGEMM with software hash vs ASA", runSpGEMM},
	{"camsweep", "X3: CAM size ablation", runCAMSweep},
	{"evict", "X4: eviction policy ablation", runEvict},
	{"hierarchy", "X5: hierarchical map equation vs two-level", runHierarchy},
	{"cachesim", "X6: trace-driven cache simulation of hash probes", runCacheSim},
	{"distributed", "X7: distributed-memory (hybrid) simulation, rank sweep", runDistributed},
	{"sched", "X8: sweep scheduling — work-stealing worker scaling and determinism", runSched},
	{"accum", "X9: accumulator backend sweep — gomap/softhash/asa/hashgraph", runAccum},
	{"delta", "X10: incremental detection — warm start vs cold on an evolved graph", runDelta},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range Experiments {
		fmt.Fprintf(w, "\n=== %s — %s ===\n", e.ID, e.Title)
		if err := e.Run(cfg, w); err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
	}
	return nil
}

// --- shared plumbing ---

var (
	cacheMu sync.Mutex
	gcache  = map[string]*graph.Graph{}
)

// replica returns the (cached) synthetic replica of a Table I network.
func replica(cfg Config, name string) (*graph.Graph, dataset.Spec, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, spec, err
	}
	scale := cfg.scaleFor(spec)
	key := fmt.Sprintf("%s/%d/%d", name, scale, cfg.Seed)
	cacheMu.Lock()
	g, ok := gcache[key]
	cacheMu.Unlock()
	if ok {
		return g, spec, nil
	}
	g, err = spec.Generate(scale, cfg.Seed)
	if err != nil {
		return nil, spec, err
	}
	cacheMu.Lock()
	gcache[key] = g
	cacheMu.Unlock()
	return g, spec, nil
}

var (
	runCacheMu sync.Mutex
	runCache   = map[string]*infomap.Result{}
)

// runKind executes Infomap on g with the given backend and worker count.
// Runs are deterministic for a fixed (graph, options) pair, so results are
// memoized: several figures share the same underlying runs.
func runKind(cfg Config, g *graph.Graph, kind infomap.AccumKind, workers int) (*infomap.Result, error) {
	key := fmt.Sprintf("%p/%d/%d/%d", g, kind, workers, cfg.Seed)
	runCacheMu.Lock()
	cached, ok := runCache[key]
	runCacheMu.Unlock()
	if ok {
		return cached, nil
	}
	res, err := infomap.Run(g, kindOptions(cfg, kind, workers))
	if err != nil {
		return nil, err
	}
	runCacheMu.Lock()
	runCache[key] = res
	runCacheMu.Unlock()
	return res, nil
}

// kindOptions returns the options of a seeded run on the given backend and
// worker count.
func kindOptions(cfg Config, kind infomap.AccumKind, workers int) infomap.Options {
	opt := infomap.DefaultOptions()
	opt.Kind = kind
	opt.Workers = workers
	opt.Seed = cfg.Seed
	return opt
}

// modeled bundles the perf-model view of one run on the Baseline machine.
type modeled struct {
	Hash   perf.Counters // accumulator (hash/ASA) operations
	Kernel perf.Counters // remaining FindBestCommunity work
	Total  perf.Counters
}

// modelRun converts a run's event counts into modeled hardware counters.
func modelRun(res *infomap.Result, kind infomap.AccumKind, machine perf.Machine) (modeled, error) {
	model := perf.DefaultModel(machine)
	hash, err := model.AccumCost(kind.ModelName(), res.TotalStats())
	if err != nil {
		return modeled{}, err
	}
	kernel := model.KernelCost(res.TotalWork())
	total := hash
	total.Add(kernel)
	return modeled{Hash: hash, Kernel: kernel, Total: total}, nil
}

// perWorkerCounters returns each worker's modeled counters.
func perWorkerCounters(res *infomap.Result, kind infomap.AccumKind, machine perf.Machine) ([]perf.Counters, error) {
	model := perf.DefaultModel(machine)
	out := make([]perf.Counters, len(res.PerWorker))
	for i, ws := range res.PerWorker {
		hash, err := model.AccumCost(kind.ModelName(), ws.Accum)
		if err != nil {
			return nil, err
		}
		c := hash
		c.Add(model.KernelCost(ws.Work))
		out[i] = c
	}
	return out, nil
}

// fmtEng renders a float with engineering suffixes (K/M/G/T).
func fmtEng(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.2fT", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fK", v/1e3)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
