// Package dataset is the registry of the paper's Table I networks. The SNAP
// originals (Amazon, DBLP, YouTube, soc-Pokec, LiveJournal, Orkut) are not
// redistributable and unavailable offline, so each entry generates a
// synthetic Chung–Lu replica that preserves the two properties every result
// in the paper depends on: the vertex/edge scale (optionally divided by a
// scale factor so experiments run on laptop budgets) and the power-law degree
// distribution (Figures 4 and 5, the CAM-capacity argument). DESIGN.md
// records this substitution.
package dataset

import (
	"fmt"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/rng"
)

// Spec describes one network from the paper's Table I.
type Spec struct {
	Name          string
	PaperVertices int     // vertex count reported in Table I
	PaperEdges    int     // edge count reported in Table I
	DegExponent   float64 // power-law exponent of the replica's degree sequence
	DefaultScale  int     // divisor applied to the vertex count by default
	DegComp       float64 // requested-degree compensation for LFR stub losses
}

// Registry lists the six networks of Table I in paper order. Exponents are
// typical published estimates for each network family; what matters for the
// reproduction is heavy-tailed sparsity, not the third decimal.
var Registry = []Spec{
	{Name: "Amazon", PaperVertices: 334863, PaperEdges: 925872, DegExponent: 2.9, DefaultScale: 8, DegComp: 1.02},
	{Name: "DBLP", PaperVertices: 317080, PaperEdges: 1049866, DegExponent: 2.8, DefaultScale: 8, DegComp: 1.20},
	{Name: "YouTube", PaperVertices: 1134890, PaperEdges: 2987624, DegExponent: 2.2, DefaultScale: 16, DegComp: 1.05},
	{Name: "soc-Pokec", PaperVertices: 1632803, PaperEdges: 30622564, DegExponent: 2.1, DefaultScale: 32, DegComp: 1.34},
	{Name: "LiveJournal", PaperVertices: 3997962, PaperEdges: 34681189, DegExponent: 2.3, DefaultScale: 64, DegComp: 1.29},
	{Name: "Orkut", PaperVertices: 3072441, PaperEdges: 117185083, DegExponent: 2.0, DefaultScale: 64, DegComp: 1.40},
}

// ByName returns the Spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown network %q", name)
}

// AvgDegree returns the network's average degree 2E/V as reported in Table I.
func (s Spec) AvgDegree() float64 {
	return 2 * float64(s.PaperEdges) / float64(s.PaperVertices)
}

// Vertices returns the replica vertex count at the given scale divisor
// (scale <= 0 uses DefaultScale; scale 1 is full paper size).
func (s Spec) Vertices(scale int) int {
	if scale <= 0 {
		scale = s.DefaultScale
	}
	n := s.PaperVertices / scale
	if n < 100 {
		n = 100
	}
	return n
}

// Generate builds the synthetic replica at the given scale divisor with the
// given seed. It returns GenerateWithTruth's graph, discarding the planted
// membership.
func (s Spec) Generate(scale int, seed uint64) (*graph.Graph, error) {
	g, _, err := s.GenerateWithTruth(scale, seed)
	return g, err
}

// GenerateWithTruth builds the synthetic replica: an undirected LFR-style
// graph whose degree sequence is a power law with the spec's exponent and
// the paper's average degree, and whose planted communities give the replica
// the modular structure real social networks have (a pure Chung–Lu graph
// would be structureless, which distorts how the FindBestCommunity kernel
// converges). The planted membership is returned for quality checks.
func (s Spec) GenerateWithTruth(scale int, seed uint64) (*graph.Graph, []uint32, error) {
	n := s.Vertices(scale)
	r := rng.New(seed ^ hashName(s.Name))
	maxDeg := n / 4
	if maxDeg < 16 {
		maxDeg = 16
	}
	maxComm := n / 20
	if maxComm > 1000 {
		maxComm = 1000
	}
	if maxComm < 25 {
		maxComm = 25
	}
	// LFR stub matching rejects self-loops and duplicates, which costs
	// heavy-tailed sequences a sizeable fraction of their requested degree
	// (hub stubs collide), and the loss is a non-linear function of the
	// exponent, scale, and degree bounds. Compensate adaptively: regenerate
	// with a corrected request until the realized average degree lands within
	// 8% of Table I's, up to three attempts. DegComp seeds the first attempt.
	target := s.AvgDegree()
	comp := s.DegComp
	if comp <= 0 {
		comp = 1
	}
	var (
		g       *graph.Graph
		planted []uint32
		err     error
	)
	for attempt := 0; attempt < 3; attempt++ {
		p := gen.LFRParams{
			N:         n,
			AvgDegree: target * comp,
			MaxDegree: maxDeg,
			DegExp:    s.DegExponent,
			CommExp:   1.5,
			MinComm:   20,
			MaxComm:   maxComm,
			Mu:        0.3,
		}
		g, planted, err = gen.LFR(p, r)
		if err != nil {
			return nil, nil, err
		}
		realized := float64(g.M()) / float64(g.N())
		ratio := realized / target
		if ratio > 0.92 && ratio < 1.08 {
			break
		}
		comp *= target / realized
		if comp < 0.5 {
			comp = 0.5
		}
		if comp > 3 {
			comp = 3
		}
	}
	return g, planted, nil
}

// hashName derives a stable per-network seed perturbation so two networks
// generated with the same user seed differ.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// CAMCoverage returns, for each CAM capacity in entries, the fraction of
// vertices whose neighbor list fits without overflow — the paper's Figure 5.
// A vertex fits when its degree is at most the entry count.
func CAMCoverage(g *graph.Graph, entryCounts []int) []float64 {
	return g.DegreeCDF(entryCounts)
}

// EntriesForBytes converts CAM byte sizes to entry counts at entryBytes per
// entry (the x-axis conversion used in Figure 5).
func EntriesForBytes(byteSizes []int, entryBytes int) []int {
	out := make([]int, len(byteSizes))
	for i, b := range byteSizes {
		out[i] = b / entryBytes
	}
	return out
}
