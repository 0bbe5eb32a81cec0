package asamap_test

import (
	"fmt"
	"log"

	asamap "github.com/asamap/asamap"
)

// ExampleDetectCommunities demonstrates the minimal workflow: build a graph,
// run Infomap, inspect the modules.
func ExampleDetectCommunities() {
	b := asamap.NewGraphBuilder(6, false)
	edges := [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			log.Fatal(err)
		}
	}
	res, err := asamap.DetectCommunities(b.Build(), asamap.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("modules:", res.NumModules)
	for _, members := range asamap.CommunityModules(res.Membership) {
		fmt.Println(members)
	}
	// Output:
	// modules: 2
	// [0 1 2]
	// [3 4 5]
}

// ExampleDetectCommunities_asa runs the same detection through the ASA
// accelerator model and reports the accumulator event counts the paper's
// hardware evaluation is built on.
func ExampleDetectCommunities_asa() {
	b := asamap.NewGraphBuilder(6, false)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			log.Fatal(err)
		}
	}
	opt := asamap.DefaultOptions()
	opt.Kind = asamap.ASAAccumulator
	opt.ASAConfig = asamap.DefaultASAConfig() // 8KB CAM, LRU
	res, err := asamap.DetectCommunities(b.Build(), opt)
	if err != nil {
		log.Fatal(err)
	}
	st := res.TotalStats()
	fmt.Println("modules:", res.NumModules)
	fmt.Println("CAM evictions:", st.Evictions)
	// Output:
	// modules: 2
	// CAM evictions: 0
}

// ExampleDetectCommunitiesHierarchical finds multi-scale structure: three
// pairs of triangles, nested two levels deep.
func ExampleDetectCommunitiesHierarchical() {
	b := asamap.NewGraphBuilder(12, false)
	// Three "super" groups of two triangles each.
	for grp := uint32(0); grp < 2; grp++ {
		base := grp * 6
		for c := uint32(0); c < 2; c++ {
			o := base + c*3
			_ = b.AddEdge(o, o+1, 3)
			_ = b.AddEdge(o+1, o+2, 3)
			_ = b.AddEdge(o, o+2, 3)
		}
		_ = b.AddEdge(base, base+3, 1.5)
		_ = b.AddEdge(base+1, base+4, 1.5)
	}
	_ = b.AddEdge(0, 6, 0.1)
	res, err := asamap.DetectCommunitiesHierarchical(b.Build(), asamap.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vertices covered:", res.Root.Size())
	fmt.Println("hierarchy no worse than flat:", res.Codelength <= res.Flat.Codelength+1e-12)
	// Output:
	// vertices covered: 12
	// hierarchy no worse than flat: true
}
