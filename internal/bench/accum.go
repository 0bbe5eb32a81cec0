package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/perf"
)

// AccumSchemaVersion is bumped whenever the BENCH_accum.json layout changes;
// the committed artifact and the schema test must move together.
const AccumSchemaVersion = 1

// accumNetworks are the paper-scale replicas the accumulator sweep runs on.
// soc-Pokec is the skewed-degree workload: its hubs produce the large, dense
// accumulation sessions where chained probing pays per-hop and the
// probe-free resolve is expected to win.
var accumNetworks = []string{"Amazon", "YouTube", "soc-Pokec"}

// accumSkewedNetwork names the workload the hashgraph-vs-softhash acceptance
// comparison is made on.
const accumSkewedNetwork = "soc-Pokec"

// accumKinds is the full backend sweep, gomap (oracle) first so every other
// backend's bit_identical field compares against it.
var accumKinds = []infomap.AccumKind{
	infomap.GoMap, infomap.Baseline, infomap.ASA, infomap.HashGraph,
}

// accumRow is one (network, backend) cell of the accumulator experiment.
type accumRow struct {
	Network    string  `json:"network"`
	Backend    string  `json:"backend"`
	Vertices   int     `json:"vertices"`
	Arcs       int     `json:"arcs"`
	MaxDegree  int     `json:"max_degree"`
	Codelength float64 `json:"codelength"`
	Levels     int     `json:"levels"`
	// Raw accumulator event counters summed over the run.
	Accumulates uint64 `json:"accumulates"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	ChainHops   uint64 `json:"chain_hops"`
	Rehashes    uint64 `json:"rehashes"`
	Evictions   uint64 `json:"evictions"`
	OverflowKV  uint64 `json:"overflow_kv"`
	BinnedKV    uint64 `json:"binned_kv"`
	ScatteredKV uint64 `json:"scattered_kv"`
	BinMergedKV uint64 `json:"bin_merged_kv"`
	GatheredKV  uint64 `json:"gathered_kv"`
	// Modeled hardware counters on the Baseline machine.
	AccumInstructions float64 `json:"accum_instructions"`
	AccumCycles       float64 `json:"accum_cycles"`
	TotalCycles       float64 `json:"total_cycles"`
	CPI               float64 `json:"cpi"`
	// SpeedupVsSofthash is softhash accum-cycles / this backend's
	// accum-cycles on the same network (1.0 for softhash itself).
	SpeedupVsSofthash float64 `json:"speedup_vs_softhash"`
	// BitIdentical: membership and codelength bits match the gomap oracle
	// run on the same network.
	BitIdentical bool `json:"bit_identical"`
}

// accumReport is the BENCH_accum.json artifact.
type accumReport struct {
	Experiment    string     `json:"experiment"`
	SchemaVersion int        `json:"schema_version"`
	Seed          uint64     `json:"seed"`
	Quick         bool       `json:"quick"`
	Workers       int        `json:"workers"`
	Machine       string     `json:"machine"`
	SkewedNetwork string     `json:"skewed_network"`
	Rows          []accumRow `json:"rows"`
}

// runAccum sweeps every accumulator backend over the paper-scale replicas
// and reports raw event counters plus modeled cycles side by side. Runs use
// a single worker so the schedule-dependent counters (softhash chain hops
// and rehashes) are reproducible for a fixed seed, making the committed
// artifact regenerable bit for bit. When cfg.JSONPath is set the
// machine-readable BENCH_accum.json is written there.
func runAccum(cfg Config, w io.Writer) error {
	report := accumReport{
		Experiment:    "accum",
		SchemaVersion: AccumSchemaVersion,
		Seed:          cfg.Seed,
		Quick:         cfg.Quick,
		Workers:       1,
		Machine:       perf.Baseline().Name,
		SkewedNetwork: accumSkewedNetwork,
	}
	fmt.Fprintf(w, "%-10s  %-9s  %9s  %7s  %10s  %9s  %9s  %11s  %11s  %7s  %s\n",
		"network", "backend", "accums", "maxdeg", "chain-hops", "rehashes", "binned",
		"accum-cyc", "total-cyc", "speedup", "identical")
	for _, name := range accumNetworks {
		g, _, err := replica(cfg, name)
		if err != nil {
			return err
		}
		var oracle *infomap.Result
		rows := make([]accumRow, 0, len(accumKinds))
		for _, kind := range accumKinds {
			res, err := runKind(cfg, g, kind, 1)
			if err != nil {
				return err
			}
			if oracle == nil {
				oracle = res
			}
			st := res.TotalStats()
			m, err := modelRun(res, kind, perf.Baseline())
			if err != nil {
				return err
			}
			row := accumRow{
				Network:           name,
				Backend:           kind.ModelName(),
				Vertices:          g.N(),
				Arcs:              g.M(),
				MaxDegree:         g.MaxDegree(),
				Codelength:        res.Codelength,
				Levels:            res.Levels,
				Accumulates:       st.Accumulates,
				Hits:              st.Hits,
				Misses:            st.Misses,
				ChainHops:         st.ChainHops,
				Rehashes:          st.Rehashes,
				Evictions:         st.Evictions,
				OverflowKV:        st.OverflowKV,
				BinnedKV:          st.BinnedKV,
				ScatteredKV:       st.ScatteredKV,
				BinMergedKV:       st.BinMergedKV,
				GatheredKV:        st.GatheredKV,
				AccumInstructions: m.Hash.Instructions,
				AccumCycles:       m.Hash.Cycles,
				TotalCycles:       m.Total.Cycles,
				CPI:               m.Total.CPI(),
				BitIdentical: sameMembership(oracle.Membership, res.Membership) &&
					res.Codelength == oracle.Codelength,
			}
			if !row.BitIdentical {
				return fmt.Errorf("bench: accum: %s/%s diverged from the gomap oracle",
					row.Network, row.Backend)
			}
			if kind == infomap.HashGraph && (st.ChainHops != 0 || st.Rehashes != 0) {
				return fmt.Errorf("bench: accum: hashgraph reported probe events on %s: %+v",
					row.Network, st)
			}
			rows = append(rows, row)
		}
		var softhashCycles float64
		for _, row := range rows {
			if row.Backend == "softhash" {
				softhashCycles = row.AccumCycles
			}
		}
		for i := range rows {
			row := &rows[i]
			if softhashCycles > 0 && row.AccumCycles > 0 {
				row.SpeedupVsSofthash = softhashCycles / row.AccumCycles
			}
			fmt.Fprintf(w, "%-10s  %-9s  %9s  %7d  %10s  %9d  %9s  %11s  %11s  %6.2fx  %v\n",
				row.Network, row.Backend, fmtEng(float64(row.Accumulates)), row.MaxDegree,
				fmtEng(float64(row.ChainHops)), row.Rehashes, fmtEng(float64(row.BinnedKV)),
				fmtEng(row.AccumCycles), fmtEng(row.TotalCycles), row.SpeedupVsSofthash,
				row.BitIdentical)
		}
		report.Rows = append(report.Rows, rows...)
	}
	if cfg.JSONPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.JSONPath)
	}
	return nil
}
