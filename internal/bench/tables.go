package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/asamap/asamap/internal/dataset"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/trace"
)

// runTable1 reproduces Table I: the network datasets, paper sizes alongside
// the synthetic replica actually used at the configured scale.
func runTable1(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "%-12s %12s %12s | %6s %10s %10s %8s\n",
		"Network", "Paper #V", "Paper #E", "scale", "Repl #V", "Repl #E", "avg deg")
	for _, spec := range dataset.Registry {
		g, _, err := replica(cfg, spec.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %12d %12d | %6d %10d %10d %8.2f\n",
			spec.Name, spec.PaperVertices, spec.PaperEdges,
			cfg.scaleFor(spec), g.N(), g.NumEdges(), float64(g.M())/float64(g.N()))
	}
	return nil
}

// runTable2 reproduces Table II: the machine configurations of the native
// host and the simulated Baseline.
func runTable2(_ Config, w io.Writer) error {
	rows := []struct {
		item string
		get  func(perf.Machine) string
	}{
		{"Processor", func(m perf.Machine) string { return fmt.Sprintf("%d cores, %.1fGHz", m.Cores, m.FreqGHz) }},
		{"L1 instruction cache", func(m perf.Machine) string { return fmt.Sprintf("%dKB", m.L1InstKB) }},
		{"L1 data cache", func(m perf.Machine) string { return fmt.Sprintf("%dKB", m.L1DataKB) }},
		{"L2", func(m perf.Machine) string { return fmt.Sprintf("private %dKB", m.L2KB) }},
		{"L3", func(m perf.Machine) string { return fmt.Sprintf("shared %dMB", m.L3MB) }},
		{"Base CPI (model)", func(m perf.Machine) string { return fmt.Sprintf("%.2f", m.BaseCPI) }},
		{"Mispredict penalty", func(m perf.Machine) string { return fmt.Sprintf("%.0f cycles", m.MispredictPenalty) }},
		{"Avg miss latency", func(m perf.Machine) string { return fmt.Sprintf("%.0f cycles", m.MemMissLatency) }},
	}
	native, baseline := perf.Native(), perf.Baseline()
	fmt.Fprintf(w, "%-22s %-22s %-22s\n", "Item", "Native", "Baseline")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-22s %-22s\n", r.item, r.get(native), r.get(baseline))
	}
	return nil
}

// nativeVsBaseline renders Table III/IV: per-iteration FindBestCommunity
// runtime, Go wall clock ("Native") against the perf model on the Baseline
// machine. Following the paper's ZSim-validation methodology, the model's
// aggregate is first calibrated against the native total; the table then
// reports how well the per-iteration shape agrees. The native times are the
// run's FindBestCommunity spans, so this run is traced rather than shared
// through runKind's cache.
func nativeVsBaseline(cfg Config, w io.Writer, workers, maxRows int) error {
	g, _, err := replica(cfg, "YouTube")
	if err != nil {
		return err
	}
	opt := kindOptions(cfg, infomap.Baseline, workers)
	tracer := obs.New(obs.Config{Seed: cfg.Seed})
	opt.Trace = tracer.Begin("table")
	res, err := infomap.Run(g, opt)
	opt.Trace.End()
	if err != nil {
		return err
	}
	model := perf.DefaultModel(perf.Baseline())

	// Vertex-level sweeps only, matching the paper's per-iteration rows: the
	// FindBestCommunity iterations before the first super-node contraction.
	walls := leafSweepWalls(tracer.Snapshot(0))
	leaf := 0
	for leaf < len(res.SweepLog) && res.SweepLog[leaf].Level == 0 {
		leaf++
	}
	if leaf != len(walls) {
		return fmt.Errorf("bench: %d vertex-level sweeps in the SweepLog but %d sweep spans", leaf, len(walls))
	}
	type row struct {
		native, modeledRaw float64
	}
	var rows []row
	totalNative, totalModeled := 0.0, 0.0
	for i, s := range res.SweepLog[:min(leaf, maxRows)] {
		hc, err := model.AccumCost(infomap.Baseline.ModelName(), s.Stats)
		if err != nil {
			return err
		}
		c := hc
		c.Add(model.KernelCost(s.Work))
		native := walls[i].Seconds()
		modeledSec := c.Seconds(perf.Baseline()) / float64(workers)
		rows = append(rows, row{native: native, modeledRaw: modeledSec})
		totalNative += native
		totalModeled += modeledSec
	}
	if totalModeled == 0 {
		return fmt.Errorf("bench: no vertex-level sweeps recorded")
	}
	calib := totalNative / totalModeled
	fmt.Fprintf(w, "Workers: %d   (model calibrated on aggregate: ×%.3f)\n", workers, calib)
	fmt.Fprintf(w, "%-12s %14s %16s %10s\n", "Iteration", "Native (s)", "Baseline (s)", "% diff")
	for i, r := range rows {
		m := r.modeledRaw * calib
		diff := 0.0
		if r.native > 0 {
			diff = 100 * math.Abs(m-r.native) / r.native
		}
		fmt.Fprintf(w, "%-12d %14.6f %16.6f %9.1f%%\n", i+1, r.native, m, diff)
	}
	return nil
}

// leafSweepWalls returns the FindBestCommunity span time of each sweep under
// the run's first vertex-level pass (the outer-0, level-0 level span), in
// sweep order. Sweeps run one after another, so their End order is their
// sweep order.
func leafSweepWalls(spans []obs.SpanData) []time.Duration {
	attr := func(d obs.SpanData, key string) string {
		for _, a := range d.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	var level uint64
	for _, d := range spans {
		if d.Name == "level" && attr(d, "outer") == "0" && attr(d, "level") == "0" {
			level = d.ID
			break
		}
	}
	sweep := map[uint64]int{}
	for _, d := range spans {
		if d.Name == "sweep" && d.Parent == level {
			sweep[d.ID] = len(sweep)
		}
	}
	walls := make([]time.Duration, len(sweep))
	for _, d := range spans {
		if i, ok := sweep[d.Parent]; ok && d.Name == trace.KernelFindBestCommunity {
			walls[i] = d.Duration()
		}
	}
	return walls
}

// The paper's Table III lists 7 iterations (1 core) and Table IV lists 5
// (2 cores); report the same rows and calibrate only over them.
func runTable3(cfg Config, w io.Writer) error { return nativeVsBaseline(cfg, w, 1, 7) }
func runTable4(cfg Config, w io.Writer) error { return nativeVsBaseline(cfg, w, 2, 5) }

// table5Networks matches Table V's rows (the paper omits LiveJournal there).
var table5Networks = []string{"Amazon", "DBLP", "YouTube", "soc-Pokec", "Orkut"}

// hashOpSeconds runs both backends single-core on one network and returns
// the modeled hash-operation time of each on the Baseline machine.
func hashOpSeconds(cfg Config, name string) (baselineSec, asaSec float64, err error) {
	g, _, err := replica(cfg, name)
	if err != nil {
		return 0, 0, err
	}
	base, err := runKind(cfg, g, infomap.Baseline, 1)
	if err != nil {
		return 0, 0, err
	}
	acc, err := runKind(cfg, g, infomap.ASA, 1)
	if err != nil {
		return 0, 0, err
	}
	mb, err := modelRun(base, infomap.Baseline, perf.Baseline())
	if err != nil {
		return 0, 0, err
	}
	ma, err := modelRun(acc, infomap.ASA, perf.Baseline())
	if err != nil {
		return 0, 0, err
	}
	machine := perf.Baseline()
	return mb.Hash.Seconds(machine), ma.Hash.Seconds(machine), nil
}

// runTable5 reproduces Table V: time spent on hash operations, Baseline vs
// ASA, single core.
func runTable5(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "%-12s %16s %14s %10s\n", "Network", "Baseline (s)", "ASA (s)", "speedup")
	for _, name := range table5Networks {
		b, a, err := hashOpSeconds(cfg, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %16.4f %14.4f %9.2fx\n", name, b, a, b/a)
	}
	return nil
}
