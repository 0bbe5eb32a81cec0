package spgemm

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/hashtab"
	"github.com/asamap/asamap/internal/rng"
)

func mustNew(t *testing.T, rows, cols int, entries []Entry) *Matrix {
	t.Helper()
	m, err := New(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewBasics(t *testing.T) {
	m := mustNew(t, 3, 3, []Entry{{0, 0, 1}, {1, 1, 2}, {2, 0, 3}})
	if m.NNZ() != 3 || m.Rows() != 3 || m.Cols() != 3 {
		t.Fatalf("NNZ=%d", m.NNZ())
	}
	if m.At(2, 0) != 3 || m.At(0, 1) != 0 {
		t.Fatal("At wrong")
	}
}

func TestNewMergesDuplicatesAndDropsZeros(t *testing.T) {
	m := mustNew(t, 2, 2, []Entry{{0, 0, 1}, {0, 0, 2.5}, {1, 1, 0}})
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
	if m.At(0, 0) != 3.5 {
		t.Fatalf("merged = %g", m.At(0, 0))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 2, []Entry{{5, 0, 1}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := New(-1, 2, nil); err == nil {
		t.Fatal("negative dims accepted")
	}
}

func denseMultiply(a, b *Matrix) [][]float64 {
	c := make([][]float64, a.Rows())
	for i := range c {
		c[i] = make([]float64, b.Cols())
	}
	for j := 0; j < b.Cols(); j++ {
		bRows, bVals := b.ColEntries(j)
		for t := range bRows {
			k := int(bRows[t])
			aRows, aVals := a.ColEntries(k)
			for s := range aRows {
				c[aRows[s]][j] += aVals[s] * bVals[t]
			}
		}
	}
	return c
}

func accumulators() map[string]accum.Accumulator {
	return map[string]accum.Accumulator{
		"gomap":    accum.NewMap(16),
		"softhash": hashtab.New(16),
		"asa":      asa.MustNew(asa.DefaultConfig()),
		"asa-tiny": asa.MustNew(asa.Config{CapacityBytes: 64, EntryBytes: 16, Policy: asa.LRU}),
	}
}

func TestMultiplyIdentity(t *testing.T) {
	r := rng.New(1)
	a, err := Random(20, 20, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	for name, acc := range accumulators() {
		c, err := Multiply(a, Identity(20), acc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NNZ() != a.NNZ() {
			t.Fatalf("%s: A·I has %d nnz, A has %d", name, c.NNZ(), a.NNZ())
		}
		for _, e := range a.Entries() {
			if math.Abs(c.At(int(e.Row), int(e.Col))-e.Val) > 1e-12 {
				t.Fatalf("%s: A·I differs at (%d,%d)", name, e.Row, e.Col)
			}
		}
	}
}

func TestMultiplyAgainstDense(t *testing.T) {
	r := rng.New(2)
	a, err := Random(30, 25, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(25, 35, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	want := denseMultiply(a, b)
	for name, acc := range accumulators() {
		c, err := Multiply(a, b, acc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 30; i++ {
			for j := 0; j < 35; j++ {
				if math.Abs(c.At(i, j)-want[i][j]) > 1e-9 {
					t.Fatalf("%s: C(%d,%d) = %g, want %g", name, i, j, c.At(i, j), want[i][j])
				}
			}
		}
	}
}

func TestMultiplyPowerLawWithOverflow(t *testing.T) {
	// Power-law columns against a tiny CAM exercise the overflow/merge path
	// heavily; the result must still match the map oracle.
	r := rng.New(3)
	a, err := RandomPowerLaw(60, 1, 40, 2.0, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomPowerLaw(60, 1, 40, 2.0, r)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Multiply(a, b, accum.NewMap(64))
	if err != nil {
		t.Fatal(err)
	}
	tiny := asa.MustNew(asa.Config{CapacityBytes: 48, EntryBytes: 16, Policy: asa.LRU})
	got, err := Multiply(a, b, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != oracle.NNZ() {
		t.Fatalf("nnz %d vs oracle %d", got.NNZ(), oracle.NNZ())
	}
	for _, e := range oracle.Entries() {
		if math.Abs(got.At(int(e.Row), int(e.Col))-e.Val) > 1e-9 {
			t.Fatalf("(%d,%d): %g vs %g", e.Row, e.Col, got.At(int(e.Row), int(e.Col)), e.Val)
		}
	}
	if tiny.Stats().Evictions == 0 {
		t.Fatal("test intended to exercise CAM overflow")
	}
}

func TestMultiplyDimensionMismatch(t *testing.T) {
	a := Identity(3)
	b := Identity(4)
	if _, err := Multiply(a, b, accum.NewMap(4)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestRandomValidation(t *testing.T) {
	r := rng.New(4)
	if _, err := Random(0, 5, 1, r); err == nil {
		t.Fatal("rows=0 accepted")
	}
	if _, err := RandomPowerLaw(0, 1, 2, 2.0, r); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestEntriesRoundTrip(t *testing.T) {
	r := rng.New(5)
	a, err := Random(15, 15, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	b := mustNew(t, 15, 15, a.Entries())
	if b.NNZ() != a.NNZ() {
		t.Fatal("entries round trip changed nnz")
	}
}

// At returns the value at (i, j), zero when not stored.
func (m *Matrix) At(i, j int) float64 {
	rows, vals := m.ColEntries(j)
	k := sort.Search(len(rows), func(k int) bool { return rows[k] >= uint32(i) })
	if k < len(rows) && rows[k] == uint32(i) {
		return vals[k]
	}
	return 0
}

// Entries returns all nonzeros in column-major order.
func (m *Matrix) Entries() []Entry {
	out := make([]Entry, 0, m.NNZ())
	for j := 0; j < m.cols; j++ {
		rows, vals := m.ColEntries(j)
		for k := range rows {
			out = append(out, Entry{Row: rows[k], Col: uint32(j), Val: vals[k]})
		}
	}
	return out
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Row: uint32(i), Col: uint32(i), Val: 1}
	}
	m, err := New(n, n, entries)
	if err != nil {
		panic(err) // cannot happen: entries are in range by construction
	}
	return m
}

// Random returns a rows×cols matrix with approximately nnzPerCol uniformly
// placed nonzeros per column, values in (0, 1].
func Random(rows, cols, nnzPerCol int, r *rng.RNG) (*Matrix, error) {
	if rows <= 0 || cols <= 0 || nnzPerCol <= 0 {
		return nil, fmt.Errorf("spgemm: invalid Random(%d,%d,%d)", rows, cols, nnzPerCol)
	}
	var entries []Entry
	for j := 0; j < cols; j++ {
		for k := 0; k < nnzPerCol; k++ {
			entries = append(entries, Entry{
				Row: uint32(r.Intn(rows)),
				Col: uint32(j),
				Val: r.Float64() + 1e-9,
			})
		}
	}
	return New(rows, cols, entries)
}
