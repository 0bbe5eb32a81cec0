package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/trace"
)

// schedRow is one worker count of the scheduling experiment.
type schedRow struct {
	Workers      int     `json:"workers"`
	SweepWallMS  float64 `json:"sweep_wall_ms"`  // FindBestCommunity wall time
	CommitWallMS float64 `json:"commit_wall_ms"` // UpdateMembers wall time
	TotalWallMS  float64 `json:"total_wall_ms"`  // whole run
	Imbalance    float64 `json:"imbalance"`      // busy-weighted mean max/mean
	Steals       uint64  `json:"steals"`
	Codelength   float64 `json:"codelength"`
	BitIdentical bool    `json:"bit_identical"` // membership == 1-worker reference
}

// SchedSchemaVersion pins the BENCH_sched.json schema. Bump it when
// schedReport/schedRow change shape, and regenerate the committed artifact.
const SchedSchemaVersion = 2

// schedReport is the BENCH_sched.json artifact.
type schedReport struct {
	SchemaVersion int        `json:"schema_version"`
	Experiment    string     `json:"experiment"`
	Quick         bool       `json:"quick,omitempty"` // reduced scale; not a committable artifact
	Vertices      int        `json:"vertices"`
	Arcs          int        `json:"arcs"`
	Generator     string     `json:"generator"`
	Scale         int        `json:"scale"`
	EdgeFactor    int        `json:"edge_factor"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	Rows          []schedRow `json:"rows"`
}

// runSched measures the work-stealing sweep scheduler across the worker
// sweep on a power-law R-MAT graph, whose hubs are what degree-aware blocks
// and stealing balance. It also verifies the determinism contract
// (bit-identical membership at every worker count) and, when cfg.JSONPath
// is set, writes the machine-readable BENCH_sched.json artifact.
func runSched(cfg Config, w io.Writer) error {
	scale, edgeFactor := 17, 8
	if cfg.Quick {
		scale = 12
	}
	g, err := gen.RMAT(scale, edgeFactor, rng.New(cfg.Seed))
	if err != nil {
		return err
	}
	report := schedReport{
		SchemaVersion: SchedSchemaVersion,
		Experiment:    "sched",
		Quick:         cfg.Quick,
		Vertices:      g.N(),
		Arcs:          g.M(),
		Generator:     "rmat",
		Scale:         scale,
		EdgeFactor:    edgeFactor,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(w, "R-MAT scale %d (%d vertices, %d arcs), GOMAXPROCS=%d\n",
		scale, g.N(), g.M(), report.GOMAXPROCS)
	fmt.Fprintf(w, "%8s  %12s  %12s  %10s  %8s  %12s  %s\n",
		"workers", "sweep-wall", "commit-wall", "imbalance", "steals", "codelength", "identical")

	// Every row's wall times are its run's span totals: the tracer is the
	// run's only clock.
	tracer := obs.New(obs.Config{Seed: cfg.Seed})
	var ref *infomap.Result
	for _, workers := range cfg.Workers {
		opt := infomap.DefaultOptions()
		opt.Workers = workers
		opt.Seed = cfg.Seed
		before := tracer.Totals()
		opt.Trace = tracer.Begin(fmt.Sprintf("sched workers=%d", workers))
		res, err := infomap.Run(g, opt)
		opt.Trace.End()
		if err != nil {
			return err
		}
		after := tracer.Totals()
		wallMS := func(name string) float64 {
			d := after[name].Duration - before[name].Duration
			return float64(d.Microseconds()) / 1e3
		}
		if ref == nil {
			ref = res
		}
		identical := sameMembership(ref.Membership, res.Membership)
		row := schedRow{
			Workers:      workers,
			SweepWallMS:  wallMS(trace.KernelFindBestCommunity),
			CommitWallMS: wallMS(trace.KernelUpdateMembers),
			TotalWallMS:  wallMS("run"),
			Imbalance:    res.MeanImbalance(),
			Steals:       res.Steals,
			Codelength:   res.Codelength,
			BitIdentical: identical,
		}
		report.Rows = append(report.Rows, row)
		fmt.Fprintf(w, "%8d  %10.1fms  %10.1fms  %10.3f  %8d  %12.6f  %v\n",
			row.Workers, row.SweepWallMS, row.CommitWallMS,
			row.Imbalance, row.Steals, row.Codelength, identical)
		if !identical {
			return fmt.Errorf("bench: sched: workers=%d broke determinism", workers)
		}
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
	if cfg.TraceOut != "" {
		f, err := os.Create(cfg.TraceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.TraceOut)
	}
	return nil
}

func sameMembership(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
