// Package metrics provides partition-quality measures used to validate the
// reproduction: normalized mutual information and adjusted Rand index against
// planted ground truth (the LFR benchmark protocol the paper cites for
// Infomap's quality advantage), plus conductance and pairwise F1.
package metrics

import (
	"cmp"
	"fmt"
	"math"

	"github.com/asamap/asamap/internal/graph"
)

// cellCmp orders contingency-table cells lexicographically so that every
// float reduction over a table visits cells in one canonical order — the
// bit-determinism contract extends to quality metrics, which land in golden
// e2e output and in asamapd's cached result bytes.
func cellCmp(a, b [2]uint32) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// contingency builds the joint count table of two labelings over the same
// vertex set, plus the marginals.
func contingency(a, b []uint32) (joint map[[2]uint32]float64, ma, mb map[uint32]float64, n float64, err error) {
	if len(a) != len(b) {
		return nil, nil, nil, 0, fmt.Errorf("metrics: labelings have lengths %d and %d", len(a), len(b))
	}
	joint = make(map[[2]uint32]float64)
	ma = make(map[uint32]float64)
	mb = make(map[uint32]float64)
	for i := range a {
		joint[[2]uint32{a[i], b[i]}]++
		ma[a[i]]++
		mb[b[i]]++
	}
	return joint, ma, mb, float64(len(a)), nil
}

// NMI returns the normalized mutual information of two labelings, using the
// arithmetic-mean normalization: NMI = 2·I(A;B)/(H(A)+H(B)). It is 1 for
// identical partitions (up to relabeling) and ~0 for independent ones. When
// both partitions are trivial (single cluster), NMI is defined as 1.
func NMI(a, b []uint32) (float64, error) {
	joint, ma, mb, n, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 1, nil
	}
	entropy := func(m map[uint32]float64) float64 {
		h := 0.0
		for _, k := range graph.SortedKeys(m) {
			p := m[k] / n
			h -= p * math.Log(p)
		}
		return h
	}
	ha, hb := entropy(ma), entropy(mb)
	if ha == 0 && hb == 0 {
		return 1, nil
	}
	mi := 0.0
	for _, k := range graph.SortedKeysFunc(joint, cellCmp) {
		// I(A;B) = Σ p(a,b)·log( p(a,b) / (p(a)p(b)) ), with
		// p(a,b)/(p(a)p(b)) = c·n / (ma·mb).
		c := joint[k]
		mi += (c / n) * math.Log(c*n/(ma[k[0]]*mb[k[1]]))
	}
	if mi < 0 {
		mi = 0
	}
	denom := ha + hb
	if denom == 0 {
		return 0, nil
	}
	return 2 * mi / denom, nil
}

// ARI returns the adjusted Rand index of two labelings: 1 for identical
// partitions, ~0 for random agreement, negative for worse-than-chance.
func ARI(a, b []uint32) (float64, error) {
	joint, ma, mb, n, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	if n < 2 {
		return 1, nil
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	sumJoint, sumA, sumB := 0.0, 0.0, 0.0
	for _, k := range graph.SortedKeysFunc(joint, cellCmp) {
		sumJoint += choose2(joint[k])
	}
	for _, k := range graph.SortedKeys(ma) {
		sumA += choose2(ma[k])
	}
	for _, k := range graph.SortedKeys(mb) {
		sumB += choose2(mb[k])
	}
	total := choose2(n)
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1, nil // both partitions trivial in the same way
	}
	return (sumJoint - expected) / (maxIdx - expected), nil
}

// PairwiseF1 returns precision, recall, and F1 over vertex pairs: a pair
// counts as positive when both labelings place it in the same cluster.
// Computed exactly from the contingency table in O(#distinct cells).
func PairwiseF1(pred, truth []uint32) (precision, recall, f1 float64, err error) {
	joint, mp, mt, n, err := contingency(pred, truth)
	if err != nil {
		return 0, 0, 0, err
	}
	if n < 2 {
		return 1, 1, 1, nil
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	tp := 0.0
	for _, k := range graph.SortedKeysFunc(joint, cellCmp) {
		tp += choose2(joint[k])
	}
	predPos, truthPos := 0.0, 0.0
	for _, k := range graph.SortedKeys(mp) {
		predPos += choose2(mp[k])
	}
	for _, k := range graph.SortedKeys(mt) {
		truthPos += choose2(mt[k])
	}
	if predPos == 0 {
		precision = 1
	} else {
		precision = tp / predPos
	}
	if truthPos == 0 {
		recall = 1
	} else {
		recall = tp / truthPos
	}
	if precision+recall == 0 {
		return precision, recall, 0, nil
	}
	return precision, recall, 2 * precision * recall / (precision + recall), nil
}

// Conductance returns the conductance of each cluster: cut(c) / min(vol(c),
// vol(V\c)). Lower is better; a slice indexed by cluster ID is returned.
// Clusters with zero volume get conductance 0.
func Conductance(g *graph.Graph, membership []uint32) ([]float64, error) {
	if len(membership) != g.N() {
		return nil, fmt.Errorf("metrics: membership length %d, want %d", len(membership), g.N())
	}
	k := 0
	for _, m := range membership {
		if int(m)+1 > k {
			k = int(m) + 1
		}
	}
	cut := make([]float64, k)
	vol := make([]float64, k)
	totalVol := 0.0
	for v := 0; v < g.N(); v++ {
		c := membership[v]
		nb, ws := g.OutNeighbors(v), g.OutWeights(v)
		for i, t := range nb {
			vol[c] += ws[i]
			totalVol += ws[i]
			if membership[t] != c {
				cut[c] += ws[i]
			}
		}
	}
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		denom := math.Min(vol[c], totalVol-vol[c])
		if denom <= 0 {
			out[c] = 0
			continue
		}
		out[c] = cut[c] / denom
	}
	return out, nil
}

// MeanConductance averages Conductance over clusters with nonzero volume.
func MeanConductance(g *graph.Graph, membership []uint32) (float64, error) {
	cs, err := Conductance(g, membership)
	if err != nil {
		return 0, err
	}
	if len(cs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for _, c := range cs {
		sum += c
	}
	return sum / float64(len(cs)), nil
}
