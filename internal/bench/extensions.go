package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/clock"
	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/hashtab"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/louvain"
	"github.com/asamap/asamap/internal/metrics"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/spgemm"
)

// runLFR is extension X1: the quality claim the paper cites — Infomap
// delivers better partitions than modularity methods on the LFR benchmark —
// reproduced as an NMI-vs-mixing sweep against Louvain.
func runLFR(cfg Config, w io.Writer) error {
	n := 2000
	if cfg.Quick {
		n = 600
	}
	fmt.Fprintf(w, "LFR benchmark, N=%d (NMI against planted partition):\n", n)
	fmt.Fprintf(w, "%6s %12s %12s %10s %10s\n", "mu", "Infomap", "Louvain", "im #mod", "lv #mod")
	for _, mu := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6} {
		r := rng.New(cfg.Seed + uint64(mu*100))
		g, planted, err := gen.LFR(gen.DefaultLFR(n, mu), r)
		if err != nil {
			return err
		}
		im, err := runKind(cfg, g, infomap.Baseline, 1)
		if err != nil {
			return err
		}
		lvOpt := louvain.DefaultOptions()
		lvOpt.Seed = cfg.Seed
		lv, err := louvain.Run(g, lvOpt)
		if err != nil {
			return err
		}
		nmiIM, err := metrics.NMI(im.Membership, planted)
		if err != nil {
			return err
		}
		nmiLV, err := metrics.NMI(lv.Membership, planted)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6.2f %12.4f %12.4f %10d %10d\n", mu, nmiIM, nmiLV, im.NumModules, lv.NumModules)
	}
	return nil
}

// runSpGEMM is extension X2: ASA back in its original domain — column-wise
// sparse matrix multiplication — through the same accumulator interface.
func runSpGEMM(cfg Config, w io.Writer) error {
	n, maxNNZ := 2000, 600
	if cfg.Quick {
		n, maxNNZ = 300, 100
	}
	r := rng.New(cfg.Seed)
	a, err := spgemm.RandomPowerLaw(n, 2, maxNNZ, 2.0, r)
	if err != nil {
		return err
	}
	b, err := spgemm.RandomPowerLaw(n, 2, maxNNZ, 2.0, r)
	if err != nil {
		return err
	}
	machine := perf.Baseline()
	model := perf.DefaultModel(machine)

	var clk clock.Clock = clock.Real{}
	soft := hashtab.New(256)
	t0 := clk.Now()
	cSoft, err := spgemm.Multiply(a, b, soft)
	if err != nil {
		return err
	}
	softWall := clk.Since(t0)
	softCost := model.HashCost(soft.Stats())

	cam := asa.MustNew(asa.DefaultConfig())
	t0 = clk.Now()
	cASA, err := spgemm.Multiply(a, b, cam)
	if err != nil {
		return err
	}
	asaWall := clk.Since(t0)
	asaCost := model.ASACost(cam.Stats())

	if cSoft.NNZ() != cASA.NNZ() {
		return fmt.Errorf("bench: spgemm results disagree: %d vs %d nnz", cSoft.NNZ(), cASA.NNZ())
	}
	fmt.Fprintf(w, "C = A·B with %dx%d power-law matrices (A nnz %d, B nnz %d, C nnz %d)\n",
		n, n, a.NNZ(), b.NNZ(), cSoft.NNZ())
	fmt.Fprintf(w, "%-10s %14s %14s %14s %8s\n", "backend", "modeled (s)", "instr", "mispred", "wall")
	fmt.Fprintf(w, "%-10s %14.4f %14s %14s %8v\n", "softhash",
		softCost.Seconds(machine), fmtEng(softCost.Instructions), fmtEng(softCost.Mispredicts), softWall.Round(time.Millisecond))
	fmt.Fprintf(w, "%-10s %14.4f %14s %14s %8v\n", "asa",
		asaCost.Seconds(machine), fmtEng(asaCost.Instructions), fmtEng(asaCost.Mispredicts), asaWall.Round(time.Millisecond))
	fmt.Fprintf(w, "modeled accumulation speedup: %.2fx\n",
		softCost.Seconds(machine)/asaCost.Seconds(machine))
	return nil
}

// runCAMSweep is ablation X3: how CAM capacity trades overflow volume
// against hash-operation speedup on the Pokec-like network (the paper argues
// 8KB suffices; this shows the whole curve).
func runCAMSweep(cfg Config, w io.Writer) error {
	g, _, err := replica(cfg, "soc-Pokec")
	if err != nil {
		return err
	}
	base, err := runKind(cfg, g, infomap.Baseline, 1)
	if err != nil {
		return err
	}
	machine := perf.Baseline()
	mb, err := modelRun(base, infomap.Baseline, machine)
	if err != nil {
		return err
	}
	model := perf.DefaultModel(machine)
	fmt.Fprintf(w, "%10s %12s %12s %12s %12s %10s\n",
		"CAM bytes", "overflow KV", "ovf share", "ovf time", "hash (s)", "speedup")
	for _, bytes := range []int{64, 256, 1024, 4096, 8192, 65536} {
		opt := infomap.DefaultOptions()
		opt.Kind = infomap.ASA
		opt.Seed = cfg.Seed
		opt.ASAConfig.CapacityBytes = bytes
		res, err := infomap.Run(g, opt)
		if err != nil {
			return err
		}
		ma, err := modelRun(res, infomap.ASA, machine)
		if err != nil {
			return err
		}
		st := res.TotalStats()
		share := float64(st.OverflowKV) / float64(st.Accumulates+1)
		// Overflow-handling time (the paper reports 9.86% of ASA time for
		// soc-Pokec): the cost of evictions plus the software sort_and_merge.
		ovfOnly := res.TotalStats()
		ovfOnly.Accumulates, ovfOnly.Lookups, ovfOnly.GatheredKV = 0, 0, 0
		ovfCost := model.ASACost(ovfOnly)
		ovfTime := ovfCost.Cycles / ma.Hash.Cycles
		fmt.Fprintf(w, "%10d %12d %11.2f%% %11.2f%% %12.4f %9.2fx\n",
			bytes, st.OverflowKV, 100*share, 100*ovfTime, ma.Hash.Seconds(machine),
			mb.Hash.Seconds(machine)/ma.Hash.Seconds(machine))
	}
	return nil
}

// runEvict is ablation X4: replacement-policy comparison at a fixed small
// CAM, where eviction decisions actually matter.
func runEvict(cfg Config, w io.Writer) error {
	g, _, err := replica(cfg, "soc-Pokec")
	if err != nil {
		return err
	}
	machine := perf.Baseline()
	fmt.Fprintf(w, "CAM 1KB (64 entries) on soc-Pokec replica:\n")
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "policy", "evictions", "overflow KV", "hash (s)")
	for _, pol := range []asa.Policy{asa.LRU, asa.FIFO, asa.Random} {
		opt := infomap.DefaultOptions()
		opt.Kind = infomap.ASA
		opt.Seed = cfg.Seed
		opt.ASAConfig.CapacityBytes, opt.ASAConfig.Policy = 1024, pol
		res, err := infomap.Run(g, opt)
		if err != nil {
			return err
		}
		ma, err := modelRun(res, infomap.ASA, machine)
		if err != nil {
			return err
		}
		st := res.TotalStats()
		fmt.Fprintf(w, "%-8s %12d %12d %12.4f\n", pol, st.Evictions, st.OverflowKV, ma.Hash.Seconds(machine))
	}
	return nil
}
