package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/asamap/asamap/internal/dataset"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/trace"
)

// runFig2 reproduces Figure 2: (a) the kernel breakdown of the application —
// FindBestCommunity dominates — and (b) the share of FindBestCommunity spent
// on hash operations, both for single-core Baseline runs on the two largest
// networks.
func runFig2(cfg Config, w io.Writer) error {
	kernels := []string{trace.KernelPageRank, trace.KernelFindBestCommunity,
		trace.KernelConvert2SuperNode, trace.KernelUpdateMembers}
	for _, name := range []string{"soc-Pokec", "Orkut"} {
		g, _, err := replica(cfg, name)
		if err != nil {
			return err
		}
		// The kernel times come from the run's span totals, so this run is
		// traced rather than shared through runKind's cache.
		opt := kindOptions(cfg, infomap.Baseline, 1)
		tracer := obs.New(obs.Config{Seed: cfg.Seed, RingSize: 1})
		opt.Trace = tracer.Begin("fig2")
		res, err := infomap.Run(g, opt)
		opt.Trace.End()
		if err != nil {
			return err
		}
		totals := tracer.Totals()
		var total time.Duration
		for _, k := range kernels {
			total += totals[k].Duration
		}
		fmt.Fprintf(w, "%s (wall-clock kernel breakdown):\n", name)
		for _, k := range kernels {
			d := totals[k].Duration
			fmt.Fprintf(w, "  %-20s %10v  %5.1f%%\n", k, d.Round(1e3), 100*float64(d)/float64(total))
		}
		m, err := modelRun(res, infomap.Baseline, perf.Baseline())
		if err != nil {
			return err
		}
		hashShare := m.Hash.Cycles / (m.Hash.Cycles + m.Kernel.Cycles)
		fmt.Fprintf(w, "  FindBestCommunity split (modeled): HashOperations %.1f%%, other %.1f%%\n\n",
			100*hashShare, 100*(1-hashShare))
	}
	return nil
}

// runFig4 reproduces Figure 4: the power-law degree histograms of the
// LiveJournal-, Pokec-, and YouTube-like networks, printed as log-spaced
// degree buckets.
func runFig4(cfg Config, w io.Writer) error {
	for _, name := range []string{"LiveJournal", "soc-Pokec", "YouTube"} {
		g, _, err := replica(cfg, name)
		if err != nil {
			return err
		}
		hist := g.DegreeHistogram()
		fmt.Fprintf(w, "%s degree distribution (N=%d, max degree %d):\n", name, g.N(), len(hist)-1)
		// Log-spaced buckets: [0], [1], [2,3], [4,7], ...
		lo := 0
		width := 1
		for lo < len(hist) {
			hi := lo + width - 1
			if hi >= len(hist) {
				hi = len(hist) - 1
			}
			count := 0
			for d := lo; d <= hi; d++ {
				count += hist[d]
			}
			if count > 0 {
				fmt.Fprintf(w, "  degree %6d-%-6d %9d vertices (%.3f%%)\n",
					lo, hi, count, 100*float64(count)/float64(g.N()))
			}
			lo = hi + 1
			if lo >= 2 {
				width *= 2
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runFig5 reproduces Figure 5: the fraction of vertices whose neighbor list
// fits in a core-local CAM of 1–8KB (16-byte entries), for all six networks.
func runFig5(cfg Config, w io.Writer) error {
	byteSizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10}
	entries := dataset.EntriesForBytes(byteSizes, 16)
	fmt.Fprintf(w, "%-12s", "Network")
	for _, b := range byteSizes {
		fmt.Fprintf(w, " %9dKB", b/1024)
	}
	fmt.Fprintln(w)
	for _, spec := range dataset.Registry {
		g, _, err := replica(cfg, spec.Name)
		if err != nil {
			return err
		}
		cov := dataset.CAMCoverage(g, entries)
		fmt.Fprintf(w, "%-12s", spec.Name)
		for _, c := range cov {
			fmt.Fprintf(w, " %10.2f%%", 100*c)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runFig6 reproduces Figure 6: the speedup of hash operations from ASA over
// Baseline per network, single core.
func runFig6(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "%-12s %10s\n", "Network", "speedup")
	for _, name := range table5Networks {
		b, a, err := hashOpSeconds(cfg, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %9.2fx\n", name, b/a)
	}
	return nil
}

// runFig7 reproduces Figure 7: the FindBestCommunity timing breakdown
// (HashOperations vs rest) across core counts for Baseline and ASA on the
// Amazon- and DBLP-like networks.
func runFig7(cfg Config, w io.Writer) error {
	machine := perf.Baseline()
	for _, name := range []string{"Amazon", "DBLP"} {
		g, _, err := replica(cfg, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s:\n", name)
		fmt.Fprintf(w, "  %5s | %12s %12s | %12s %12s | %10s\n",
			"cores", "base hash(s)", "base rest(s)", "asa hash(s)", "asa rest(s)", "hash red.")
		for _, workers := range cfg.Workers {
			base, err := runKind(cfg, g, infomap.Baseline, workers)
			if err != nil {
				return err
			}
			acc, err := runKind(cfg, g, infomap.ASA, workers)
			if err != nil {
				return err
			}
			mb, err := modelRun(base, infomap.Baseline, machine)
			if err != nil {
				return err
			}
			ma, err := modelRun(acc, infomap.ASA, machine)
			if err != nil {
				return err
			}
			// Per-core time: events divide across cores.
			div := float64(workers)
			bh, br := mb.Hash.Seconds(machine)/div, mb.Kernel.Seconds(machine)/div
			ah, ar := ma.Hash.Seconds(machine)/div, ma.Kernel.Seconds(machine)/div
			fmt.Fprintf(w, "  %5d | %12.4f %12.4f | %12.4f %12.4f | %9.1f%%\n",
				workers, bh, br, ah, ar, 100*(1-ah/bh))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runFig8 reproduces Figure 8: total instructions (a), mispredicted branches
// (b), and CPI (c) for Baseline vs ASA on the three largest networks.
func runFig8(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "%-12s | %10s %10s %7s | %10s %10s %7s | %6s %6s %7s\n",
		"Network", "base instr", "asa instr", "red.",
		"base mpred", "asa mpred", "red.", "b.CPI", "a.CPI", "red.")
	for _, name := range []string{"YouTube", "soc-Pokec", "Orkut"} {
		g, _, err := replica(cfg, name)
		if err != nil {
			return err
		}
		base, err := runKind(cfg, g, infomap.Baseline, 1)
		if err != nil {
			return err
		}
		acc, err := runKind(cfg, g, infomap.ASA, 1)
		if err != nil {
			return err
		}
		mb, err := modelRun(base, infomap.Baseline, perf.Baseline())
		if err != nil {
			return err
		}
		ma, err := modelRun(acc, infomap.ASA, perf.Baseline())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s | %10s %10s %6.1f%% | %10s %10s %6.1f%% | %6.2f %6.2f %6.1f%%\n",
			name,
			fmtEng(mb.Total.Instructions), fmtEng(ma.Total.Instructions),
			100*(1-ma.Total.Instructions/mb.Total.Instructions),
			fmtEng(mb.Total.Mispredicts), fmtEng(ma.Total.Mispredicts),
			100*(1-ma.Total.Mispredicts/mb.Total.Mispredicts),
			mb.Total.CPI(), ma.Total.CPI(),
			100*(1-ma.Total.CPI()/mb.Total.CPI()))
	}
	return nil
}

// perCoreMetric renders Figures 9–11: the average per-core value of one
// modeled counter across core counts, Baseline vs ASA, on Amazon and DBLP.
func perCoreMetric(cfg Config, w io.Writer, metric string,
	get func(perf.Counters) float64) error {
	machine := perf.Baseline()
	for _, name := range []string{"Amazon", "DBLP"} {
		g, _, err := replica(cfg, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (avg per-core %s):\n", name, metric)
		fmt.Fprintf(w, "  %5s %14s %14s %10s\n", "cores", "Baseline", "ASA", "reduction")
		for _, workers := range cfg.Workers {
			base, err := runKind(cfg, g, infomap.Baseline, workers)
			if err != nil {
				return err
			}
			acc, err := runKind(cfg, g, infomap.ASA, workers)
			if err != nil {
				return err
			}
			bc, err := perWorkerCounters(base, infomap.Baseline, machine)
			if err != nil {
				return err
			}
			ac, err := perWorkerCounters(acc, infomap.ASA, machine)
			if err != nil {
				return err
			}
			avg := func(cs []perf.Counters) float64 {
				s := 0.0
				for _, c := range cs {
					s += get(c)
				}
				return s / float64(len(cs))
			}
			b, a := avg(bc), avg(ac)
			fmt.Fprintf(w, "  %5d %14s %14s %9.1f%%\n", workers, fmtEng(b), fmtEng(a), 100*(1-a/b))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig9(cfg Config, w io.Writer) error {
	return perCoreMetric(cfg, w, "instructions", func(c perf.Counters) float64 { return c.Instructions })
}

func runFig10(cfg Config, w io.Writer) error {
	return perCoreMetric(cfg, w, "branch mispredictions", func(c perf.Counters) float64 { return c.Mispredicts })
}

func runFig11(cfg Config, w io.Writer) error {
	return perCoreMetric(cfg, w, "CPI", func(c perf.Counters) float64 { return c.CPI() })
}
