package bench

import (
	"fmt"
	"io"

	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/cachesim"
	"github.com/asamap/asamap/internal/dist"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/hashtab"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/perf"
)

// runHierarchy is extension X5: the hierarchical map equation on a graph
// with planted multi-scale structure, compared against the flat two-level
// solution the paper's HyPC-Map optimizes.
func runHierarchy(cfg Config, w io.Writer) error {
	super, inner, size := 8, 4, 8
	if cfg.Quick {
		super, inner, size = 4, 3, 6
	}
	g, err := nestedBenchmark(super, inner, size)
	if err != nil {
		return err
	}
	opt := infomap.DefaultOptions()
	opt.Seed = cfg.Seed
	res, err := infomap.RunHierarchical(g, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "nested benchmark: %d super groups x %d cliques x %d vertices\n", super, inner, size)
	fmt.Fprintf(w, "two-level L:     %.4f bits (%d leaf modules)\n", res.Flat.Codelength, len(res.Leaves()))
	fmt.Fprintf(w, "hierarchical L:  %.4f bits (depth %d, %d modules, %d top groups)\n",
		res.Codelength, res.Depth, res.Modules, len(res.Root.Children))
	fmt.Fprintf(w, "gain:            %.2f%%\n", 100*(1-res.Codelength/res.Flat.Codelength))
	if len(res.Root.Children) == super {
		fmt.Fprintf(w, "top level recovered the %d planted super groups\n", super)
	}
	return nil
}

// nestedBenchmark builds a multi-scale test graph: super groups of strongly
// linked cliques, weakly linked to each other in a ring.
func nestedBenchmark(super, inner, size int) (*graph.Graph, error) {
	n := super * inner * size
	b := graph.NewBuilder(n, false)
	for g := 0; g < super; g++ {
		for c := 0; c < inner; c++ {
			base := (g*inner + c) * size
			for i := 0; i < size; i++ {
				for j := i + 1; j < size; j++ {
					if err := b.AddEdge(uint32(base+i), uint32(base+j), 4); err != nil {
						return nil, err
					}
				}
			}
			next := (g*inner + (c+1)%inner) * size
			for i := 0; i < size/2+1; i++ {
				if err := b.AddEdge(uint32(base+i), uint32(next+i), 2); err != nil {
					return nil, err
				}
			}
		}
		from := (g * inner) * size
		to := (((g + 1) % super) * inner) * size
		if err := b.AddEdge(uint32(from), uint32(to+1), 0.5); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// runCacheSim is extension X6: validate the analytic perf model's memory
// assumptions by replaying the software hash table's actual probe address
// stream — from a real FindBestCommunity workload — through a trace-driven
// cache-hierarchy simulator with the paper's Table II Baseline caches.
func runCacheSim(cfg Config, w io.Writer) error {
	g, _, err := replica(cfg, "YouTube")
	if err != nil {
		return err
	}
	hier, err := cachesim.NewHierarchy(16)
	if err != nil {
		return err
	}
	tab := hashtab.New(64)
	tab.SetTracer(func(addr uint64) { hier.Access(addr) })
	cam := asa.MustNew(asa.DefaultConfig())

	// Replay the full memory stream of the vertex-level kernel: the CSR
	// neighbor arrays stream sequentially, the membership array is read at
	// scattered neighbor indices, and the hash table is probed per arc.
	// Interleaving matters: the large graph-side arrays continuously evict
	// table lines, which is exactly the contention the paper's argument
	// rests on. Virtual bases: CSR targets 0x5000_0000 (4B each),
	// membership 0x4000_0000 (4B each); the table traces its own arrays.
	const (
		membershipBase = 0x4000_0000
		csrBase        = 0x5000_0000
	)
	for v := 0; v < g.N(); v++ {
		lo, _ := g.OutRange(v)
		nb := g.OutNeighbors(v)
		if len(nb) == 0 {
			continue
		}
		for j, t := range nb {
			hier.Access(csrBase + uint64(lo+j)*4)     // neighbor ID load (sequential)
			hier.Access(membershipBase + uint64(t)*4) // membership load (scattered)
			tab.Accumulate(t, 1.0)
			cam.Accumulate(t, 1.0)
		}
		tab.Reset()
		cam.Reset()
	}

	model := perf.DefaultModel(perf.Baseline())
	fmt.Fprintf(w, "FindBestCommunity memory stream through Table II caches (YouTube-like replica):\n")
	fmt.Fprintf(w, "  memory touches        %12d (CSR + membership + hash-table probes)\n", hier.Accesses())
	fmt.Fprintf(w, "  L1 miss rate          %11.2f%%\n", 100*hier.BeyondL1MissRate())
	fmt.Fprintf(w, "  deep (to-DRAM) rate   %11.2f%% of L1 misses\n", 100*hier.DeepMissRate())
	fmt.Fprintf(w, "  avg access latency    %11.2f cycles\n", hier.AvgLatency())
	fmt.Fprintf(w, "  model assumes %0.f cycles per deep miss; measured average supports the\n"+
		"  constants used for scattered hash/membership accesses\n", model.Machine.MemMissLatency)
	st := cam.Stats()
	fmt.Fprintf(w, "ASA on the same arc stream: %d accumulates, %d evictions (%.2f%% overflow);\n"+
		"  the CAM adds zero cache traffic, removing the table's share of the misses above\n",
		st.Accumulates, st.Evictions, 100*float64(st.OverflowKV)/float64(st.Accumulates))
	return nil
}

// runDistributed is extension X7: the distributed-memory (HyPC-Map hybrid)
// simulation — rank sweep with communication accounting under the
// alpha-beta model.
func runDistributed(cfg Config, w io.Writer) error {
	g, _, err := replica(cfg, "Amazon")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %10s %12s %12s %14s %12s %10s %12s\n",
		"ranks", "modules", "L (bits)", "supersteps", "updates", "MB moved", "comm (s)", "candidates")
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		opt := dist.DefaultOptions()
		opt.Ranks = ranks
		opt.Infomap.Seed = cfg.Seed
		res, err := dist.Run(g, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %10d %12.4f %12d %14d %12.3f %10.6f %12d\n",
			ranks, res.NumModules, res.Codelength, res.Comm.Supersteps,
			res.Comm.UpdatesSent, float64(res.Comm.Bytes)/1e6, res.Comm.ModeledCommSec,
			res.TotalWork().CandidatesEvaluated)
	}
	return nil
}
