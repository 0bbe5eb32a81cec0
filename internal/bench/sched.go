package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
)

// schedRow is one (workers, policy) cell of the scheduling experiment.
type schedRow struct {
	Workers      int     `json:"workers"`
	Policy       string  `json:"policy"`
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
const SchedSchemaVersion = 1

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
	// SpeedupStealVsStatic is steal's sweep-wall speedup over static
	// chunking at the largest worker count of the sweep.
	SpeedupStealVsStatic float64 `json:"speedup_steal_vs_static"`
}

// runSched measures the sweep scheduler: static equal-vertex chunks versus
// degree-aware blocks with work stealing, across the worker sweep, on a
// power-law R-MAT graph where static chunking concentrates the hubs in a few
// unlucky chunks. It also verifies the determinism contract (bit-identical
// membership across all configurations) and, when cfg.JSONPath is set,
// writes the machine-readable BENCH_sched.json artifact.
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
	fmt.Fprintf(w, "%8s  %8s  %12s  %12s  %10s  %8s  %12s  %s\n",
		"workers", "policy", "sweep-wall", "commit-wall", "imbalance", "steals", "codelength", "identical")

	var tracer *obs.Tracer
	if cfg.TraceOut != "" {
		tracer = obs.New(obs.Config{Seed: cfg.Seed})
	}
	var ref *infomap.Result
	run := func(workers int, policy infomap.SchedPolicy) (*infomap.Result, error) {
		opt := infomap.DefaultOptions()
		opt.Workers = workers
		opt.Seed = cfg.Seed
		opt.Sched = policy
		var sp *obs.Span
		if tracer != nil {
			sp = tracer.Begin(fmt.Sprintf("sched workers=%d policy=%s", workers, policy))
			opt.Trace = sp
		}
		res, err := infomap.Run(g, opt)
		sp.End()
		return res, err
	}
	policies := []infomap.SchedPolicy{infomap.SchedStatic, infomap.SchedSteal}
	staticSweep := map[int]float64{}
	for _, workers := range cfg.Workers {
		for _, policy := range policies {
			res, err := run(workers, policy)
			if err != nil {
				return err
			}
			if ref == nil {
				ref = res
			}
			identical := sameMembership(ref.Membership, res.Membership)
			var sweepWall, commitWall time.Duration
			for _, sw := range res.SweepLog {
				sweepWall += sw.Wall
				commitWall += sw.WallCommit
			}
			row := schedRow{
				Workers:      workers,
				Policy:       policy.String(),
				SweepWallMS:  float64(sweepWall.Microseconds()) / 1e3,
				CommitWallMS: float64(commitWall.Microseconds()) / 1e3,
				TotalWallMS:  float64(res.Elapsed.Microseconds()) / 1e3,
				Imbalance:    res.MeanImbalance(),
				Steals:       res.Steals,
				Codelength:   res.Codelength,
				BitIdentical: identical,
			}
			if policy == infomap.SchedStatic {
				staticSweep[workers] = row.SweepWallMS
			} else if s, ok := staticSweep[workers]; ok && row.SweepWallMS > 0 && workers == maxOf(cfg.Workers) {
				report.SpeedupStealVsStatic = s / row.SweepWallMS
			}
			report.Rows = append(report.Rows, row)
			fmt.Fprintf(w, "%8d  %8s  %10.1fms  %10.1fms  %10.3f  %8d  %12.6f  %v\n",
				row.Workers, row.Policy, row.SweepWallMS, row.CommitWallMS,
				row.Imbalance, row.Steals, row.Codelength, identical)
			if !identical {
				return fmt.Errorf("bench: sched: workers=%d policy=%v broke determinism", workers, policy)
			}
		}
	}
	if report.SpeedupStealVsStatic > 0 {
		fmt.Fprintf(w, "steal vs static sweep speedup at %d workers: %.2fx\n",
			maxOf(cfg.Workers), report.SpeedupStealVsStatic)
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

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
