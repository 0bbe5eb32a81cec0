// Command infomap detects communities in a SNAP-format edge-list file using
// the parallel Infomap implementation, with a choice of sparse-accumulation
// backend (software hash baseline, ASA accelerator model, or Go map).
//
// Usage:
//
//	infomap -in graph.txt                       # undirected, baseline backend
//	infomap -in graph.txt -directed -accum asa  # directed, ASA backend
//	infomap -in graph.txt -out communities.txt  # write "vertex module" lines
//	infomap -in graph.txt -workers 4 -stats     # parallel run + kernel stats
//	infomap -in graph.txt -timeout 30s          # bound the wall-clock time
//	infomap -in graph.txt -delta changes.txt \
//	    -warm-start -frontier-hops 2            # incremental re-detection
//	infomap -in graph.txt -dist-ranks 8 \
//	    -fault-drop 0.2 -fault-crash-rank 1 -fault-crash-step 2 \
//	    -fault-down-for 3                       # faulted distributed run
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/asamap/asamap/internal/dist"
	"github.com/asamap/asamap/internal/export"
	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/trace"
)

func main() {
	in := flag.String("in", "", "input edge-list file (SNAP format); required")
	out := flag.String("out", "", "output file for 'vertex<TAB>module' lines (default: stdout summary only)")
	directed := flag.Bool("directed", false, "treat edges as directed arcs")
	accumKind := flag.String("accum", "baseline", "accumulator backend: baseline | asa | gomap | hashgraph")
	camKB := flag.Int("cam-kb", 8, "CAM size in KB for the asa backend")
	workers := flag.Int("workers", 1, "parallel workers (0 = all CPUs)")
	seed := flag.Uint64("seed", 1, "seed for the visitation order")
	stats := flag.Bool("stats", false, "print kernel breakdown and modeled hardware counters")
	hierarchical := flag.Bool("hierarchical", false, "detect a multi-level hierarchy (hierarchical map equation)")
	teleport := flag.String("teleport", "recorded", "directed teleportation model: recorded | unrecorded")
	tree := flag.String("tree", "", "write the hierarchy in Infomap .tree format to this path (implies -hierarchical)")
	gexf := flag.String("gexf", "", "write the community-colored graph as GEXF (Gephi) to this path")
	dot := flag.String("dot", "", "write the community-colored graph as Graphviz DOT to this path")
	deltaPath := flag.String("delta", "", "delta edge-list file (+/-/= ops over the input file's vertex labels) applied to -in before detection")
	warmStart := flag.Bool("warm-start", false, "with -delta: run the parent graph cold, then seed the child run from its partition")
	frontierHops := flag.Int("frontier-hops", 2, "with -warm-start: re-optimize only vertices within this many hops of the delta's endpoints")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto) to this path")
	distRanks := flag.Int("dist-ranks", 0, "run the simulated distributed substrate on this many ranks instead of the shared-memory path (0 = off)")
	faultDrop := flag.Float64("fault-drop", 0, "distributed: per-message delta-batch drop probability")
	faultDup := flag.Float64("fault-dup", 0, "distributed: per-message duplication probability")
	faultDelay := flag.Float64("fault-delay", 0, "distributed: per-message one-superstep delay probability")
	faultCrashRank := flag.Int("fault-crash-rank", -1, "distributed: crash this rank (-1 = no crash)")
	faultCrashStep := flag.Int("fault-crash-step", 0, "distributed: global superstep at which the rank crashes")
	faultDownFor := flag.Int("fault-down-for", 1, "distributed: supersteps the crashed rank stays down")
	faultSeed := flag.Uint64("fault-seed", 1, "distributed: seed for the fault injector's draws")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "infomap: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	g, labels, err := graph.ReadEdgeListFile(*in, *directed)
	if err != nil {
		fatal(err)
	}

	// An incremental run keeps the parent graph around: the delta file's ops
	// are remapped from the input file's labels to dense IDs, applied to build
	// the child, and (with -warm-start) the parent partition seeds the child
	// run so only the delta's k-hop frontier re-optimizes.
	if *warmStart && *deltaPath == "" {
		fatal(fmt.Errorf("-warm-start requires -delta"))
	}
	var parent *graph.Graph
	var touched []uint32
	if *deltaPath != "" {
		raw, err := graph.ReadDeltaListFile(*deltaPath)
		if err != nil {
			fatal(err)
		}
		var d *graph.Delta
		d, labels = remapDelta(raw, labels)
		parent = g
		g, err = d.Apply(parent)
		if err != nil {
			fatal(err)
		}
		touched = d.Touched()
		fmt.Printf("delta: %d ops touching %d vertices (%d -> %d vertices, %d -> %d arcs)\n",
			len(d.Ops), len(touched), parent.N(), g.N(), parent.M(), g.M())
	}

	opt := infomap.DefaultOptions()
	opt.Workers = *workers
	opt.Seed = *seed
	if opt.Teleport, err = infomap.ParseTeleportation(*teleport); err != nil {
		fatal(err)
	}
	if opt.Kind, err = infomap.ParseAccumKind(*accumKind); err != nil {
		fatal(err)
	}
	// opt.ASAConfig is asa.DefaultConfig(); -cam-kb sizes only the CAM.
	if opt.Kind == infomap.ASA {
		opt.ASAConfig.CapacityBytes = *camKB * 1024
	}

	// -dist-ranks swaps the shared-memory sweep for the simulated cluster's
	// supersteps; every algorithm flag means the same on both paths.
	if *distRanks < 0 {
		fatal(fmt.Errorf("-dist-ranks %d < 0", *distRanks))
	}
	distributed := *distRanks > 0
	if distributed && (*hierarchical || *tree != "") {
		fatal(fmt.Errorf("-hierarchical and -tree are not supported with -dist-ranks"))
	}
	dopt := dist.DefaultOptions()
	dopt.Ranks = *distRanks
	dopt.Fault = fault.Config{
		Seed:      *faultSeed,
		DropProb:  *faultDrop,
		DupProb:   *faultDup,
		DelayProb: *faultDelay,
	}
	if *faultCrashRank >= 0 {
		dopt.Fault.InjectCrash = true
		dopt.Fault.CrashRank = *faultCrashRank
		dopt.Fault.CrashStep = *faultCrashStep
		dopt.Fault.CrashDownFor = *faultDownFor
	}
	detect := func(g *graph.Graph, opt infomap.Options) (*infomap.Result, *dist.Result, error) {
		if !distributed {
			res, err := infomap.RunContext(ctx, g, opt)
			return res, nil, err
		}
		dopt.Infomap = opt
		dres, err := dist.RunContext(ctx, g, dopt)
		if err != nil {
			return nil, nil, err
		}
		return dres.Result, dres, nil
	}

	if *warmStart {
		// Cold run on the parent graph; its partition (new vertices appended
		// as fresh singletons) becomes the child run's warm seed and the
		// delta's endpoints become the frontier seeds.
		pres, _, err := detect(parent, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("parent: %s\n", pres)
		opt.WarmStart = infomap.WarmSeed(pres.Membership, pres.NumModules, g.N())
		opt.FrontierSeeds = touched
		opt.FrontierHops = *frontierHops
	}

	// The run's spans are its only clock: "elapsed:" is the run span and
	// -stats reads its kernel times from the same span totals.
	tracer := obs.New(obs.Config{Seed: *seed})
	opt.Trace = tracer.Begin("infomap")

	// A hierarchy grows from the flat run, so -hierarchical runs the flat
	// search once, inside RunHierarchicalContext, and reports its result.
	var res *infomap.Result
	var hres *infomap.HierResult
	var dres *dist.Result
	if *hierarchical || *tree != "" {
		hres, err = infomap.RunHierarchicalContext(ctx, g, opt)
		if hres != nil {
			res = hres.Flat
		}
	} else {
		res, dres, err = detect(g, opt)
	}
	if err != nil {
		fatal(err)
	}
	opt.Trace.End()
	totals := tracer.Totals()

	fmt.Printf("graph: %d vertices, %d arcs (%s)\n", g.N(), g.M(), direction(g))
	fmt.Printf("result: %s\n", res)
	if opt.WarmStart != nil {
		fmt.Printf("warm: frontier %d of %d vertices re-optimized, %d frozen (hops %d)\n",
			res.FrontierSize, g.N(), res.FrozenVertices, opt.FrontierHops)
	}
	fmt.Printf("elapsed: %v (backend %s, %d workers)\n", totals["run"].Duration, opt.Kind, opt.Workers)
	if dres != nil {
		c := dres.Comm
		fmt.Printf("distributed: %d ranks\n", dopt.Ranks)
		fmt.Printf("comm: %d supersteps, %d messages, %d bytes, %d updates, modeled %.6fs\n",
			c.Supersteps, c.Messages, c.Bytes, c.UpdatesSent, c.ModeledCommSec)
		fmt.Printf("faults: %d drops, %d retries, %d redelivered bytes, %d recoveries, %d checkpoint bytes, backoff %.6fs\n",
			c.Drops, c.Retries, c.RedeliveredBytes, c.Recoveries, c.CheckpointBytes, c.BackoffSec)
		fmt.Printf("injected: %d drops, %d duplicates, %d delays, %d crashes\n",
			dres.Fault.Drops, dres.Fault.Duplicates, dres.Fault.Delays, dres.Fault.Crashes)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}

	if hres != nil {
		fmt.Printf("hierarchy: %s\n", hres)
		if *tree != "" {
			f, err := os.Create(*tree)
			if err != nil {
				fatal(err)
			}
			if err := hres.WriteTree(f, labels); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote Infomap .tree to %s\n", *tree)
		}
	}
	if *gexf != "" {
		if err := export.WriteGEXFFile(*gexf, g, res.Membership); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote GEXF to %s\n", *gexf)
	}
	if *dot != "" {
		if err := export.WriteDOTFile(*dot, g, res.Membership); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote DOT to %s\n", *dot)
	}

	if *stats {
		var kernelWall time.Duration
		for _, k := range trace.Kernels() {
			kernelWall += totals[k].Duration
		}
		fmt.Printf("\nkernel breakdown:\n")
		for _, k := range trace.Kernels() {
			d := totals[k].Duration
			fmt.Printf("%-20s %12v  %5.1f%%\n", k, d.Round(time.Microsecond), 100*float64(d)/float64(kernelWall))
		}
		fmt.Printf("accumulator: %+v\n", res.TotalStats())
		fmt.Printf("scheduler: steals=%d mean-imbalance=%.3f\n",
			res.Steals, res.MeanImbalance())
		machine := perf.Baseline()
		model := perf.DefaultModel(machine)
		name := opt.Kind.ModelName()
		hash, err := model.AccumCost(name, res.TotalStats())
		if err != nil {
			fatal(err)
		}
		kernel := model.KernelCost(res.TotalWork())
		total := hash
		total.Add(kernel)
		fmt.Printf("\nmodeled hardware counters (Baseline machine, %s backend):\n", name)
		fmt.Printf("  instructions      %14.0f\n", total.Instructions)
		fmt.Printf("  branches          %14.0f\n", total.Branches)
		fmt.Printf("  mispredictions    %14.0f\n", total.Mispredicts)
		fmt.Printf("  CPI               %14.2f\n", total.CPI())
		fmt.Printf("  hash-op seconds   %14.4f\n", hash.Seconds(machine))
		fmt.Printf("  total seconds     %14.4f\n", total.Seconds(machine))
	}

	if *out != "" {
		writeAssignments(*out, labels, res.Membership)
	}
}

// writeAssignments writes one "vertex<TAB>module" line per vertex, the
// vertex named by its input label, to path.
func writeAssignments(path string, labels []uint64, membership []uint32) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	bw := bufio.NewWriter(f)
	for v, m := range membership {
		fmt.Fprintf(bw, "%d\t%d\n", labels[v], m)
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d assignments to %s\n", len(membership), path)
}

// remapDelta translates a delta file's vertex IDs — written in the input
// edge list's original label space — into the dense IDs the loaded graph
// uses. Labels the input never mentioned get fresh dense IDs appended to the
// label table, exactly as ReadEdgeList would have assigned them, so the
// child graph's assignment output still reports original labels.
func remapDelta(d *graph.Delta, labels []uint64) (*graph.Delta, []uint64) {
	dense := make(map[uint64]uint32, len(labels))
	for i, l := range labels {
		dense[l] = uint32(i)
	}
	lookup := func(label uint32) uint32 {
		if id, ok := dense[uint64(label)]; ok {
			return id
		}
		id := uint32(len(labels))
		dense[uint64(label)] = id
		labels = append(labels, uint64(label))
		return id
	}
	out := &graph.Delta{Ops: make([]graph.DeltaEdge, len(d.Ops))}
	for i, op := range d.Ops {
		out.Ops[i] = graph.DeltaEdge{Op: op.Op, From: lookup(op.From), To: lookup(op.To), Weight: op.Weight}
	}
	return out, labels
}

func direction(g *graph.Graph) string {
	if g.Directed() {
		return "directed"
	}
	return "undirected"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "infomap: %v\n", err)
	os.Exit(1)
}
