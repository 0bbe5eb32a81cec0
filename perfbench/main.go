// Command perfbench is asamap's wall-clock benchmark. It drives the program
// from outside through its public entry points — graph.ReadEdgeList,
// infomap.RunContext, and an in-process asamapd over loopback HTTP — on one
// of three seed-generated workloads, checks every output, and prints each
// metric by name and unit:
//
//	bash perfbench/run.sh --workload batch-hub --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that attributes latency to the layers. End-to-end
// times are scaled to nominal host speed by a probe sampled between ops (see
// probe.go): a shared host's speed drifts by more than the bounds. The last
// line of standard output is the result object; the line before it stamps
// the host, the raw times and the sample counts. -manifest prints
// BENCHMARK.json.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	quick     bool // small inputs and one set-up, for the package's tests
	setupReps int
	workers   int // goroutines the workload keeps busy; the probe runs as many
}

// workloadDef binds a workload name to its shape, constructor and the
// cores it runs on: its detection workers, and the GOMAXPROCS it runs under.
// The serve workloads run one worker and one caller in turn, so a second
// core would add only the hand-offs of goroutines between cores, which on a
// shared host take a different time in every run.
type workloadDef struct {
	shape   func(quick bool) shape
	new     func(config, *recorder) workload
	workers int
}

var workloads = map[string]workloadDef{
	"batch-hub": {
		shape:   func(bool) shape { return batchShape },
		new:     func(c config, r *recorder) workload { return newBatchHub(c, r) },
		workers: batchWorkers,
	},
	"serve-cold": {
		shape:   coldShape,
		new:     func(c config, r *recorder) workload { return newServeCold(c, r) },
		workers: 1,
	},
	"serve-delta": {
		shape:   deltaShape,
		new:     func(c config, r *recorder) workload { return newServeDelta(c, r) },
		workers: 1,
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var traceFlag int
	var out string
	var printManifest bool
	fl.StringVar(&cfg.workload, "workload", "", "workload: batch-hub, serve-cold or serve-delta")
	fl.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fl.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured window in seconds")
	fl.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	fl.BoolVar(&cfg.quick, "quick", false, "small inputs and one set-up (tests)")
	fl.StringVar(&out, "out", "", "directory for the traced run's span dump (none if empty)")
	fl.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if printManifest {
		stdout.Write(manifest())
		return 0
	}
	def, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (batch-hub|serve-cold|serve-delta), --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.workers = def.workers
	cfg.setupReps = 5
	if cfg.quick {
		cfg.setupReps = 1
	}
	// A run whose workers outnumber the cores the runtime schedules on would
	// time goroutine interleaving, not parallel work.
	if procs := runtime.GOMAXPROCS(0); def.workers > procs {
		fmt.Fprintf(stderr, "perfbench: %s runs %d workers but GOMAXPROCS is %d; refusing\n", cfg.workload, def.workers, procs)
		return 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(def.workers))

	host := hostStamp()
	o, err := measure(context.Background(), cfg, def.shape(cfg.quick), func(r *recorder) workload { return def.new(cfg, r) })
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if o.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", cfg.workload, o.failed, o.attempted, o.firstErr)
	}
	if cfg.trace && out != "" {
		if err := dumpSpans(out, cfg, o); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}

	o.report["workload"] = cfg.workload
	o.report["seed"] = cfg.seed
	o.report["trace"] = cfg.trace
	o.report["host"] = host
	writeJSONLine(stdout, o.report)
	writeJSONLine(stdout, result(cfg, o))
	if o.failed > 0 || o.attempted == 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line: the end-to-end metrics of an untraced run or
// the per-layer metrics of a traced one.
func result(cfg config, o *outcome) map[string]any {
	metrics := map[string]metricValue{}
	specs, values := endToEnd, o.metrics
	if cfg.trace {
		specs, values = perLayer, o.layers
	}
	for _, m := range specs {
		metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	return map[string]any{
		"correct":   o.failed == 0 && o.attempted > 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	}
}

func writeJSONLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

// hostStamp records what the numbers were measured on and built from.
func hostStamp() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit(),
	}
}

// commit names the source that was measured: a digest of every Go source
// and module file under the working directory, which run.sh makes the
// checkout root. A VCS revision would not do: it names the same commit
// whether or not the tree has changes, and a benchmark checkout has none.
func commit() string {
	const root = "."
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// dumpSpans writes every traced op's spans, kept in memory during the run.
func dumpSpans(dir string, cfg config, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(o.traces)
	if err != nil {
		return err
	}
	return os.WriteFile(name, b, 0o644)
}
