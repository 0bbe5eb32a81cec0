// Package gen generates synthetic graphs for the paper reproduction.
//
// The SNAP datasets used in the paper (Amazon, DBLP, YouTube, soc-Pokec,
// LiveJournal, Orkut) are not redistributable and not available offline, so
// the benchmark harness substitutes synthetic replicas whose two relevant
// properties match: scale (vertex/edge counts) and power-law degree
// distribution (which drives the paper's Figures 4 and 5 and the CAM-capacity
// argument). Chung–Lu graphs reproduce an arbitrary expected degree sequence;
// LFR benchmark graphs additionally plant ground-truth communities, enabling
// solution-quality validation that the raw SNAP graphs cannot provide.
package gen

import (
	"fmt"
	"math"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/rng"
)

// PowerLawDegrees samples n expected degrees from a discrete power law with
// the given exponent on [minDeg, maxDeg].
func PowerLawDegrees(n, minDeg, maxDeg int, exponent float64, r *rng.RNG) []int {
	deg := make([]int, n)
	for i := range deg {
		deg[i] = r.PowerLaw(minDeg, maxDeg, exponent)
	}
	return deg
}

// ChungLu generates an undirected graph whose expected degree sequence equals
// degrees, using the edge-skipping variant of the Chung–Lu model: vertex pair
// (u,v) is connected with probability min(1, d_u d_v / (2m)). The realized
// graph is simple (no multi-edges); self-loops are excluded. Weights are 1.
//
// The implementation groups vertices by degree-sorted order and uses the
// standard geometric skipping trick so the cost is proportional to the number
// of realized edges rather than n^2.
func ChungLu(degrees []int, r *rng.RNG) (*graph.Graph, error) {
	n := len(degrees)
	sumDeg := 0.0
	for _, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("gen: negative degree %d", d)
		}
		sumDeg += float64(d)
	}
	b := graph.NewBuilder(n, false)
	if sumDeg == 0 {
		return b.Build(), nil
	}

	// Order vertices by descending degree; within the sorted order the
	// connection probabilities p(u,v) = d_u d_v / S are non-increasing in v,
	// which is what the skipping procedure requires.
	order := sortByDegreeDesc(degrees)
	d := make([]float64, n)
	for i, v := range order {
		d[i] = float64(degrees[v])
	}

	for i := 0; i < n; i++ {
		if d[i] == 0 {
			break
		}
		j := i + 1
		for j < n {
			pj := d[i] * d[j] / sumDeg
			if pj > 1 {
				pj = 1
			}
			if pj <= 0 {
				break
			}
			// Skip ahead geometrically: the number of consecutive misses at
			// probability pj is geometric. Using the current pj as a bound is
			// the classic Miller–Hagberg approximation; it is exact when the
			// sequence is sorted because pj only decreases with j.
			if pj < 1 {
				u := r.Float64()
				skip := int(math.Floor(math.Log(1-u) / math.Log(1-pj)))
				if skip < 0 {
					skip = 0
				}
				j += skip
				if j >= n {
					break
				}
				// Accept j with probability p_actual/pj (<= 1).
				pActual := d[i] * d[j] / sumDeg
				if pActual > 1 {
					pActual = 1
				}
				if r.Float64() < pActual/pj {
					if err := b.AddEdge(uint32(order[i]), uint32(order[j]), 1); err != nil {
						return nil, err
					}
				}
				j++
			} else {
				if err := b.AddEdge(uint32(order[i]), uint32(order[j]), 1); err != nil {
					return nil, err
				}
				j++
			}
		}
	}
	return b.Build(), nil
}

// sortByDegreeDesc returns vertex IDs ordered by descending degree using a
// counting sort (degrees are small integers).
func sortByDegreeDesc(degrees []int) []int {
	maxD := 0
	for _, d := range degrees {
		if d > maxD {
			maxD = d
		}
	}
	buckets := make([][]int, maxD+1)
	for v, d := range degrees {
		buckets[d] = append(buckets[d], v)
	}
	order := make([]int, 0, len(degrees))
	for d := maxD; d >= 0; d-- {
		order = append(order, buckets[d]...)
	}
	return order
}

// SBMParams configures a planted-partition stochastic block model.
type SBMParams struct {
	Sizes []int   // community sizes
	PIn   float64 // within-community edge probability
	POut  float64 // between-community edge probability
}

// SBM generates an undirected planted-partition graph and returns the graph
// and the planted membership (dense community IDs per vertex).
//
//asalint:unreachable test fixture: the dist, infomap, louvain, mapeq and serve tests plant communities with it
func SBM(p SBMParams, r *rng.RNG) (*graph.Graph, []uint32, error) {
	if p.PIn < 0 || p.PIn > 1 || p.POut < 0 || p.POut > 1 {
		return nil, nil, fmt.Errorf("gen: SBM probabilities out of [0,1]: pin=%g pout=%g", p.PIn, p.POut)
	}
	n := 0
	for _, s := range p.Sizes {
		if s <= 0 {
			return nil, nil, fmt.Errorf("gen: SBM community size %d", s)
		}
		n += s
	}
	membership := make([]uint32, n)
	idx := 0
	for c, s := range p.Sizes {
		for i := 0; i < s; i++ {
			membership[idx] = uint32(c)
			idx++
		}
	}
	b := graph.NewBuilder(n, false)
	// Bernoulli sampling with geometric skipping over the upper triangle,
	// done separately for the two probability regimes.
	addBlock := func(prob float64, sameBlock bool) error {
		if prob <= 0 {
			return nil
		}
		for u := 0; u < n; u++ {
			v := u + 1
			for v < n {
				if prob < 1 {
					skip := int(math.Floor(math.Log(1-r.Float64()) / math.Log(1-prob)))
					if skip < 0 {
						skip = 0
					}
					v += skip
				}
				if v >= n {
					break
				}
				if (membership[u] == membership[v]) == sameBlock {
					if err := b.AddEdge(uint32(u), uint32(v), 1); err != nil {
						return err
					}
				}
				v++
			}
		}
		return nil
	}
	if err := addBlock(p.PIn, true); err != nil {
		return nil, nil, err
	}
	if err := addBlock(p.POut, false); err != nil {
		return nil, nil, err
	}
	g := b.Build()
	return g, membership, nil
}

// CliqueChain returns k cliques of size s joined in a ring by single bridge
// edges — the canonical resolution-limit example from Fortunato & Barthélemy
// that modularity-based methods merge but Infomap separates. The returned
// membership is the planted one-module-per-clique assignment.
func CliqueChain(k, s int) (*graph.Graph, []uint32, error) {
	if k < 2 || s < 3 {
		return nil, nil, fmt.Errorf("gen: CliqueChain requires k>=2, s>=3 (got k=%d s=%d)", k, s)
	}
	n := k * s
	b := graph.NewBuilder(n, false)
	membership := make([]uint32, n)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			membership[base+i] = uint32(c)
			for j := i + 1; j < s; j++ {
				if err := b.AddEdge(uint32(base+i), uint32(base+j), 1); err != nil {
					return nil, nil, err
				}
			}
		}
		next := ((c + 1) % k) * s
		if err := b.AddEdge(uint32(base), uint32(next+1), 1); err != nil {
			return nil, nil, err
		}
	}
	return b.Build(), membership, nil
}

// RMAT generates a directed power-law graph with 2^scale vertices and
// approximately edgeFactor*2^scale edges using the recursive-matrix model
// (a=0.57, b=0.19, c=0.19, d=0.05 — the Graph500 parameters). Duplicate
// arcs merge, so the realized arc count can be slightly lower.
func RMAT(scale, edgeFactor int, r *rng.RNG) (*graph.Graph, error) {
	if scale < 1 || scale > 30 || edgeFactor < 1 {
		return nil, fmt.Errorf("gen: RMAT scale=%d edgeFactor=%d out of range", scale, edgeFactor)
	}
	n := 1 << uint(scale)
	m := n * edgeFactor
	const a, bq, c = 0.57, 0.19, 0.19
	b := graph.NewBuilder(n, true)
	for e := 0; e < m; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			p := r.Float64()
			switch {
			case p < a:
				// upper-left quadrant: no bits set
			case p < a+bq:
				v |= 1 << uint(bit)
			case p < a+bq+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		if u == v {
			continue
		}
		if err := b.AddEdge(uint32(u), uint32(v), 1); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
