// Social-network example: the paper's headline scenario. Generates a
// Pokec-like power-law social network (the replica of the network where the
// paper observes its best speedup, 5.56×), runs the full parallel Infomap
// pipeline with the software-hash Baseline and with the ASA accelerator
// model, and reports the comparison the paper's evaluation makes: hash
// operation time, instructions, branch mispredictions, and CPI.
//
// Run with:
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"

	"github.com/asamap/asamap/internal/dataset"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/perf"
)

func main() {
	spec, err := dataset.ByName("soc-Pokec")
	if err != nil {
		log.Fatal(err)
	}
	// Scale divisor 128 keeps the example under a minute; drop it to run at
	// larger scale (see DESIGN.md on the SNAP substitution).
	g, err := spec.Generate(128, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("soc-Pokec replica: %d vertices, %d edges (paper network: %d vertices, %d edges)\n\n",
		g.N(), g.NumEdges(), spec.PaperVertices, spec.PaperEdges)

	machine := perf.Baseline()
	model := perf.DefaultModel(machine)
	type outcome struct {
		res  *infomap.Result
		hash perf.Counters
		all  perf.Counters
	}
	run := func(kind infomap.AccumKind) outcome {
		opt := infomap.DefaultOptions()
		opt.Kind = kind
		opt.Workers = 2
		res, err := infomap.Run(g, opt)
		if err != nil {
			log.Fatal(err)
		}
		hash, err := model.AccumCost(kind.ModelName(), res.TotalStats())
		if err != nil {
			log.Fatal(err)
		}
		all := hash
		all.Add(model.KernelCost(res.TotalWork()))
		return outcome{res: res, hash: hash, all: all}
	}

	base := run(infomap.Baseline)
	acc := run(infomap.ASA)

	fmt.Printf("Baseline: %s\n", base.res)
	fmt.Printf("ASA:      %s\n\n", acc.res)

	fmt.Printf("%-28s %14s %14s\n", "modeled metric", "Baseline", "ASA")
	fmt.Printf("%-28s %14.4f %14.4f  (%.2fx speedup)\n", "hash-operation seconds",
		base.hash.Seconds(machine), acc.hash.Seconds(machine),
		base.hash.Seconds(machine)/acc.hash.Seconds(machine))
	fmt.Printf("%-28s %14.0f %14.0f  (%.0f%% fewer)\n", "instructions",
		base.all.Instructions, acc.all.Instructions,
		100*(1-acc.all.Instructions/base.all.Instructions))
	fmt.Printf("%-28s %14.0f %14.0f  (%.0f%% fewer)\n", "branch mispredictions",
		base.all.Mispredicts, acc.all.Mispredicts,
		100*(1-acc.all.Mispredicts/base.all.Mispredicts))
	fmt.Printf("%-28s %14.2f %14.2f  (%.0f%% lower)\n", "CPI",
		base.all.CPI(), acc.all.CPI(),
		100*(1-acc.all.CPI()/base.all.CPI()))

	st := acc.res.TotalStats()
	fmt.Printf("\nASA CAM behaviour: %d accumulates, %d evictions, %.2f%% of pairs overflowed\n",
		st.Accumulates, st.Evictions, 100*float64(st.OverflowKV)/float64(st.Accumulates))
}
