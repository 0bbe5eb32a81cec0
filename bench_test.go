// Benchmarks regenerating the paper's tables and figures as testing.B
// targets: one benchmark per artifact. Wall-clock numbers come from real Go
// execution on small replicas; the paper's hardware-counter comparisons are
// attached as custom metrics (speedup, instr-reduction, ...) computed from
// the event-exact perf model, so `go test -bench=. -benchmem` prints both.
//
// Run a single artifact with e.g. `go test -bench=Table5 -benchmem`.
package asamap_test

import (
	"io"
	"testing"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/bench"
	"github.com/asamap/asamap/internal/cachesim"
	"github.com/asamap/asamap/internal/dataset"
	"github.com/asamap/asamap/internal/dist"
	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/hashtab"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/louvain"
	"github.com/asamap/asamap/internal/metrics"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/spgemm"
)

// benchReplica generates (once) a small replica of a Table I network.
var replicaCache = map[string]*graph.Graph{}

func benchReplica(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := replicaCache[name]; ok {
		return g
	}
	spec, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(spec.DefaultScale*16, 1)
	if err != nil {
		b.Fatal(err)
	}
	replicaCache[name] = g
	return g
}

func benchRun(b *testing.B, g *graph.Graph, kind infomap.AccumKind, workers int) *infomap.Result {
	b.Helper()
	opt := infomap.DefaultOptions()
	opt.Kind = kind
	opt.Workers = workers
	res, err := infomap.Run(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func modeledCounters(b *testing.B, res *infomap.Result, kind infomap.AccumKind) (hash, total perf.Counters) {
	b.Helper()
	model := perf.DefaultModel(perf.Baseline())
	name := map[infomap.AccumKind]string{
		infomap.Baseline: "softhash", infomap.ASA: "asa", infomap.GoMap: "gomap",
	}[kind]
	h, err := model.AccumCost(name, res.TotalStats())
	if err != nil {
		b.Fatal(err)
	}
	t := h
	t.Add(model.KernelCost(res.TotalWork()))
	return h, t
}

// BenchmarkTable1Datasets measures replica generation for each network.
func BenchmarkTable1Datasets(b *testing.B) {
	for _, spec := range dataset.Registry {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spec.Generate(spec.DefaultScale*16, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2KernelBreakdown measures the full Baseline pipeline on the
// Pokec-like network and reports the hash share of FindBestCommunity.
func BenchmarkFig2KernelBreakdown(b *testing.B) {
	g := benchReplica(b, "soc-Pokec")
	var share float64
	for i := 0; i < b.N; i++ {
		res := benchRun(b, g, infomap.Baseline, 1)
		hash, total := modeledCounters(b, res, infomap.Baseline)
		share = hash.Cycles / total.Cycles
	}
	b.ReportMetric(100*share, "hash-share-%")
}

// BenchmarkFig4DegreeHistogram measures the Figure 4 data extraction.
func BenchmarkFig4DegreeHistogram(b *testing.B) {
	g := benchReplica(b, "LiveJournal")
	for i := 0; i < b.N; i++ {
		if len(g.DegreeHistogram()) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFig5CAMCoverage measures the Figure 5 coverage computation and
// reports the 8KB coverage.
func BenchmarkFig5CAMCoverage(b *testing.B) {
	g := benchReplica(b, "YouTube")
	entries := dataset.EntriesForBytes([]int{1024, 2048, 4096, 8192}, 16)
	var cov []float64
	for i := 0; i < b.N; i++ {
		cov = dataset.CAMCoverage(g, entries)
	}
	b.ReportMetric(100*cov[3], "8KB-coverage-%")
}

// BenchmarkTable3NativeVsBaseline measures the single-core Baseline run of
// the YouTube-like network (the workload behind Tables III/IV) and reports
// the modeled-vs-native ratio, native being the run's "run" span.
func BenchmarkTable3NativeVsBaseline(b *testing.B) {
	g := benchReplica(b, "YouTube")
	var ratio float64
	for i := 0; i < b.N; i++ {
		tracer := obs.New(obs.Config{RingSize: 1})
		opt := infomap.DefaultOptions()
		opt.Trace = tracer.Begin("table3")
		res, err := infomap.Run(g, opt)
		opt.Trace.End()
		if err != nil {
			b.Fatal(err)
		}
		_, total := modeledCounters(b, res, infomap.Baseline)
		native := tracer.Totals()["run"].Duration.Seconds()
		if native > 0 {
			ratio = total.Seconds(perf.Baseline()) / native
		}
	}
	b.ReportMetric(ratio, "modeled/native")
}

// BenchmarkTable5HashOps runs both backends per network and reports the
// modeled hash-operation speedup — the headline numbers of Table V / Fig 6.
func BenchmarkTable5HashOps(b *testing.B) {
	for _, name := range []string{"Amazon", "DBLP", "YouTube", "soc-Pokec", "Orkut"} {
		b.Run(name, func(b *testing.B) {
			g := benchReplica(b, name)
			var speedup float64
			for i := 0; i < b.N; i++ {
				base := benchRun(b, g, infomap.Baseline, 1)
				acc := benchRun(b, g, infomap.ASA, 1)
				bh, _ := modeledCounters(b, base, infomap.Baseline)
				ah, _ := modeledCounters(b, acc, infomap.ASA)
				speedup = bh.Cycles / ah.Cycles
			}
			b.ReportMetric(speedup, "hash-speedup-x")
		})
	}
}

// BenchmarkFig6Speedup is the wall-clock twin of Table V: real Go execution
// time of the full pipeline per backend.
func BenchmarkFig6Speedup(b *testing.B) {
	g := benchReplica(b, "soc-Pokec")
	for _, kind := range []infomap.AccumKind{infomap.Baseline, infomap.ASA, infomap.GoMap} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRun(b, g, kind, 1)
			}
		})
	}
}

// BenchmarkFig7MultiCore sweeps worker counts for both backends (Figure 7,
// and the per-core series of Figures 9–11).
func BenchmarkFig7MultiCore(b *testing.B) {
	g := benchReplica(b, "Amazon")
	for _, workers := range []int{1, 2, 4} {
		for _, kind := range []infomap.AccumKind{infomap.Baseline, infomap.ASA} {
			b.Run(kind.String()+"/workers-"+string(rune('0'+workers)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchRun(b, g, kind, workers)
				}
			})
		}
	}
}

// BenchmarkFig8HardwareCounters reports the Figure 8 reductions as metrics.
func BenchmarkFig8HardwareCounters(b *testing.B) {
	g := benchReplica(b, "YouTube")
	var instrRed, mpredRed, cpiRed float64
	for i := 0; i < b.N; i++ {
		base := benchRun(b, g, infomap.Baseline, 1)
		acc := benchRun(b, g, infomap.ASA, 1)
		_, bt := modeledCounters(b, base, infomap.Baseline)
		_, at := modeledCounters(b, acc, infomap.ASA)
		instrRed = 100 * (1 - at.Instructions/bt.Instructions)
		mpredRed = 100 * (1 - at.Mispredicts/bt.Mispredicts)
		cpiRed = 100 * (1 - at.CPI()/bt.CPI())
	}
	b.ReportMetric(instrRed, "instr-red-%")
	b.ReportMetric(mpredRed, "mpred-red-%")
	b.ReportMetric(cpiRed, "cpi-red-%")
}

// BenchmarkAccumulators isolates the accumulate/gather/reset loop on a
// power-law workload — the pure data-structure comparison.
func BenchmarkAccumulators(b *testing.B) {
	backends := map[string]accum.Accumulator{
		"softhash": hashtab.New(64),
		"asa":      asa.MustNew(asa.DefaultConfig()),
		"gomap":    accum.NewMap(64),
	}
	for _, name := range []string{"softhash", "asa", "gomap"} {
		acc := backends[name]
		b.Run(name, func(b *testing.B) {
			r := rng.New(1)
			var buf []accum.KV
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deg := r.PowerLaw(2, 256, 2.3)
				for j := 0; j < deg; j++ {
					acc.Accumulate(uint32(r.Intn(deg/2+1)), 1.0)
				}
				buf = acc.Gather(buf[:0])
				acc.Reset()
			}
		})
	}
}

// BenchmarkLFRQuality measures Infomap vs Louvain on the LFR benchmark
// (extension X1) and reports both NMIs.
func BenchmarkLFRQuality(b *testing.B) {
	g, planted, err := gen.LFR(gen.DefaultLFR(2000, 0.3), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	var nmiIM, nmiLV float64
	for i := 0; i < b.N; i++ {
		im := benchRun(b, g, infomap.Baseline, 1)
		lv, err := louvain.Run(g, louvain.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		nmiIM, _ = metrics.NMI(im.Membership, planted)
		nmiLV, _ = metrics.NMI(lv.Membership, planted)
	}
	b.ReportMetric(nmiIM, "infomap-nmi")
	b.ReportMetric(nmiLV, "louvain-nmi")
}

// BenchmarkSpGEMM measures sparse matrix multiplication per backend
// (extension X2 — ASA's original domain).
func BenchmarkSpGEMM(b *testing.B) {
	r := rng.New(5)
	a, err := spgemm.RandomPowerLaw(600, 2, 200, 2.0, r)
	if err != nil {
		b.Fatal(err)
	}
	m2, err := spgemm.RandomPowerLaw(600, 2, 200, 2.0, r)
	if err != nil {
		b.Fatal(err)
	}
	backends := map[string]func() accum.Accumulator{
		"softhash": func() accum.Accumulator { return hashtab.New(256) },
		"asa":      func() accum.Accumulator { return asa.MustNew(asa.DefaultConfig()) },
	}
	for _, name := range []string{"softhash", "asa"} {
		mk := backends[name]
		b.Run(name, func(b *testing.B) {
			acc := mk()
			for i := 0; i < b.N; i++ {
				if _, err := spgemm.Multiply(a, m2, acc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCAMSweep measures the ASA pipeline across CAM sizes (ablation
// X3) and reports the overflow share at each size.
func BenchmarkCAMSweep(b *testing.B) {
	g := benchReplica(b, "soc-Pokec")
	for _, bytes := range []int{256, 1024, 8192} {
		b.Run(fmtBytes(bytes), func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				opt := infomap.DefaultOptions()
				opt.Kind = infomap.ASA
				opt.ASAConfig = asa.Config{CapacityBytes: bytes, EntryBytes: 16, Policy: asa.LRU}
				res, err := infomap.Run(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				st := res.TotalStats()
				share = 100 * float64(st.OverflowKV) / float64(st.Accumulates+1)
			}
			b.ReportMetric(share, "overflow-%")
		})
	}
}

// BenchmarkEvictionPolicy measures the ASA pipeline per replacement policy
// at a deliberately small CAM (ablation X4).
func BenchmarkEvictionPolicy(b *testing.B) {
	g := benchReplica(b, "soc-Pokec")
	for _, pol := range []asa.Policy{asa.LRU, asa.FIFO, asa.Random} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := infomap.DefaultOptions()
				opt.Kind = infomap.ASA
				opt.ASAConfig = asa.Config{CapacityBytes: 1024, EntryBytes: 16, Policy: pol}
				if _, err := infomap.Run(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHarness runs selected experiment runners end to end.
func BenchmarkHarness(b *testing.B) {
	for _, id := range []string{"fig5", "table5"} {
		b.Run(id, func(b *testing.B) {
			e, err := bench.ByID(id)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if err := e.Run(bench.QuickConfig(), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fmtBytes(n int) string {
	if n >= 1024 {
		return string(rune('0'+n/1024)) + "KB"
	}
	return "256B"
}

// BenchmarkHierarchical measures the hierarchical map equation driver
// (extension X5).
func BenchmarkHierarchical(b *testing.B) {
	g, _, err := gen.LFR(gen.DefaultLFR(1500, 0.25), rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := infomap.RunHierarchical(g, infomap.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if res.Codelength > res.Flat.Codelength+1e-9 {
			b.Fatal("hierarchy worsened codelength")
		}
	}
}

// BenchmarkDistributed measures the simulated distributed engine across
// rank counts (extension X7) and reports communicated bytes.
func BenchmarkDistributed(b *testing.B) {
	g := benchReplica(b, "Amazon")
	for _, ranks := range []int{1, 4} {
		b.Run(string(rune('0'+ranks))+"ranks", func(b *testing.B) {
			var bytesMoved uint64
			for i := 0; i < b.N; i++ {
				opt := dist.DefaultOptions()
				opt.Ranks = ranks
				res, err := dist.Run(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				bytesMoved = res.Comm.Bytes
			}
			b.ReportMetric(float64(bytesMoved), "bytes-moved")
		})
	}
}

// BenchmarkCacheHierarchy measures the trace-driven cache simulator
// (extension X6 substrate).
func BenchmarkCacheHierarchy(b *testing.B) {
	h, err := cachesim.NewHierarchy(16)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < b.N; i++ {
		h.Access(r.Uint64() & 0x3fffff)
	}
}
