package infomap

import (
	"testing"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/rng"
)

// Oracle draws the random graph the map-equation oracle tests draw for
// (seed, n, m) and the flow kind (directed, kind), self-loops and repeated
// edges included, and returns it with a function that prices a two-level
// partition of it by the definition-level reference.
func Oracle(t testing.TB, seed uint64, n, m int, directed bool, kind Teleportation) (*graph.Graph, func(membership []uint32) float64) {
	t.Helper()
	c := newOracleCase(t, rng.New(seed), n, m, directed, kind)
	_, ref := c.flows(t)
	return c.g, func(membership []uint32) float64 {
		mem := append([]uint32(nil), membership...)
		root := &HierNode{Children: make([]*HierNode, mapeq.CompactMembership(mem))}
		for i := range root.Children {
			root.Children[i] = &HierNode{}
		}
		for u, m := range mem {
			root.Children[m].Vertices = append(root.Children[m].Vertices, u)
		}
		return ref.codelength(root)
	}
}
