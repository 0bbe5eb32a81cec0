// Package spgemm implements column-wise sparse matrix–matrix multiplication
// (Gustavson's algorithm over columns) with the same pluggable sparse
// accumulator used by the Infomap kernel. SpGEMM is the computation the ASA
// accelerator of Zhang et al. was originally designed for; running it through
// the identical accum.Accumulator interface demonstrates the paper's claim
// that the generalized ASA interface serves any hash-accumulation workload.
package spgemm

import (
	"fmt"
	"sort"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/rng"
)

// Entry is one nonzero of a sparse matrix.
type Entry struct {
	Row, Col uint32
	Val      float64
}

// Matrix is an immutable sparse matrix in compressed-sparse-column (CSC)
// form, the layout column-wise SpGEMM consumes.
type Matrix struct {
	rows, cols int
	colPtr     []int64
	rowIdx     []uint32
	vals       []float64
}

// New builds a Matrix from entries. Duplicate (row, col) entries are summed;
// explicit zeros are dropped.
func New(rows, cols int, entries []Entry) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("spgemm: negative dimensions %dx%d", rows, cols)
	}
	for _, e := range entries {
		if int(e.Row) >= rows || int(e.Col) >= cols {
			return nil, fmt.Errorf("spgemm: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Col != sorted[j].Col {
			return sorted[i].Col < sorted[j].Col
		}
		return sorted[i].Row < sorted[j].Row
	})
	m := &Matrix{rows: rows, cols: cols, colPtr: make([]int64, cols+1)}
	var lastRow, lastCol uint32
	have := false
	for _, e := range sorted {
		if e.Val == 0 {
			continue
		}
		if have && lastRow == e.Row && lastCol == e.Col {
			m.vals[len(m.vals)-1] += e.Val
			continue
		}
		m.rowIdx = append(m.rowIdx, e.Row)
		m.vals = append(m.vals, e.Val)
		m.colPtr[e.Col+1]++
		lastRow, lastCol, have = e.Row, e.Col, true
	}
	for c := 0; c < cols; c++ {
		m.colPtr[c+1] += m.colPtr[c]
	}
	return m, nil
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int { return len(m.rowIdx) }

// ColEntries returns the row indices and values of column j (aliases
// internal storage; do not modify).
func (m *Matrix) ColEntries(j int) ([]uint32, []float64) {
	lo, hi := m.colPtr[j], m.colPtr[j+1]
	return m.rowIdx[lo:hi], m.vals[lo:hi]
}

// RandomPowerLaw returns a square matrix whose column nonzero counts follow
// a power law — the skewed sparsity pattern (à la R-MAT) where CAM overflow
// behaviour matters.
func RandomPowerLaw(n, minNNZ, maxNNZ int, exponent float64, r *rng.RNG) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("spgemm: invalid size %d", n)
	}
	var entries []Entry
	for j := 0; j < n; j++ {
		nnz := r.PowerLaw(minNNZ, maxNNZ, exponent)
		for k := 0; k < nnz; k++ {
			entries = append(entries, Entry{
				Row: uint32(r.Intn(n)),
				Col: uint32(j),
				Val: r.Float64() + 1e-9,
			})
		}
	}
	return New(n, n, entries)
}

// Multiply computes C = A·B column-wise using acc as the per-column sparse
// accumulator: for each column j of B and each nonzero B(k,j), the scaled
// column A(:,k) is accumulated into C(:,j) keyed by row index — the exact
// loop structure of the ASA paper's SpGEMM formulation.
func Multiply(a, b *Matrix, acc accum.Accumulator) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("spgemm: dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	var out []Entry
	var buf []accum.KV
	for j := 0; j < b.cols; j++ {
		acc.Reset()
		bRows, bVals := b.ColEntries(j)
		for t := range bRows {
			k := int(bRows[t])
			aRows, aVals := a.ColEntries(k)
			for s := range aRows {
				acc.Accumulate(aRows[s], aVals[s]*bVals[t])
			}
		}
		buf = acc.Gather(buf[:0])
		for _, kv := range buf {
			if kv.Value != 0 {
				out = append(out, Entry{Row: kv.Key, Col: uint32(j), Val: kv.Value})
			}
		}
	}
	return New(a.rows, b.cols, out)
}
