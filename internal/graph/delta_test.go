package graph

import (
	"bytes"
	"strings"
	"testing"
)

func mustGraph(t *testing.T, input string, directed bool) *Graph {
	t.Helper()
	g, _, err := ReadEdgeList(strings.NewReader(input), directed)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	return g
}

func TestDeltaApplyBasic(t *testing.T) {
	g := mustGraph(t, "0 1\n1 2\n2 0\n", false)
	d := &Delta{Ops: []DeltaEdge{
		{Op: DeltaAdd, From: 1, To: 3, Weight: 2},    // grows the graph to n=4
		{Op: DeltaRemove, From: 2, To: 0},            // removes an existing edge
		{Op: DeltaSet, From: 0, To: 1, Weight: 0.5},  // reweights
		{Op: DeltaRemove, From: 7, To: 8},            // remove-nonexistent no-op (grows n)
		{Op: DeltaSet, From: 1, To: 2, Weight: 0},    // set-to-zero removes
		{Op: DeltaAdd, From: 3, To: 3, Weight: 1.25}, // self-loop
	}}
	child, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := child.Validate(); err != nil {
		t.Fatalf("child fails validation: %v", err)
	}
	if child.N() != 9 {
		t.Fatalf("child N = %d, want 9 (grown by op endpoints)", child.N())
	}
	if w, ok := child.ArcWeight(0, 1); !ok || w != 0.5 {
		t.Fatalf("edge 0-1 = %g,%v, want 0.5,true", w, ok)
	}
	if child.HasArc(2, 0) || child.HasArc(0, 2) {
		t.Fatal("edge 2-0 should be removed")
	}
	if child.HasArc(1, 2) {
		t.Fatal("edge 1-2 should be removed by set-to-zero")
	}
	if w, ok := child.ArcWeight(1, 3); !ok || w != 2 {
		t.Fatalf("edge 1-3 = %g,%v, want 2,true", w, ok)
	}
	if w, ok := child.ArcWeight(3, 3); !ok || w != 1.25 {
		t.Fatalf("self-loop 3-3 = %g,%v, want 1.25,true", w, ok)
	}
}

func TestDeltaApplyAddSumsAndMirrors(t *testing.T) {
	g := mustGraph(t, "0 1 2\n", false)
	d := &Delta{Ops: []DeltaEdge{
		{Op: DeltaAdd, From: 1, To: 0, Weight: 3}, // reversed orientation sums onto 0-1
		{Op: DeltaAdd, From: 0, To: 1, Weight: 1},
	}}
	child, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if w, _ := child.ArcWeight(0, 1); w != 6 {
		t.Fatalf("edge 0-1 = %g, want 6 (2+3+1)", w)
	}
	if w, _ := child.ArcWeight(1, 0); w != 6 {
		t.Fatalf("mirror 1-0 = %g, want 6", w)
	}
}

func TestDeltaApplyDirectedKeepsOrientation(t *testing.T) {
	g := mustGraph(t, "0 1 2\n1 0 5\n", true)
	d := &Delta{Ops: []DeltaEdge{{Op: DeltaRemove, From: 1, To: 0}}}
	child, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !child.HasArc(0, 1) {
		t.Fatal("arc 0->1 should survive")
	}
	if child.HasArc(1, 0) {
		t.Fatal("arc 1->0 should be removed")
	}
}

func TestDeltaApplyMatchesColdBuild(t *testing.T) {
	// The tentpole equivalence: applying a delta must produce a graph
	// canonically identical to reading the final edge list cold.
	g := mustGraph(t, "0 1\n1 2\n2 3\n3 0\n0 2\n", false)
	d := &Delta{Ops: []DeltaEdge{
		{Op: DeltaRemove, From: 0, To: 2},
		{Op: DeltaAdd, From: 1, To: 3, Weight: 4},
		{Op: DeltaSet, From: 2, To: 3, Weight: 2.5},
	}}
	child, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	cold := mustGraph(t, "0 1\n1 2\n2 3 2.5\n3 0\n1 3 4\n", false)
	if child.CanonicalHash() != cold.CanonicalHash() {
		t.Fatal("delta-applied graph differs canonically from cold build")
	}
}

func TestDeltaValidate(t *testing.T) {
	bad := []Delta{
		{Ops: []DeltaEdge{{Op: DeltaAdd, From: 0, To: 1, Weight: 0}}},
		{Ops: []DeltaEdge{{Op: DeltaAdd, From: 0, To: 1, Weight: -1}}},
		{Ops: []DeltaEdge{{Op: DeltaSet, From: 0, To: 1, Weight: -0.5}}},
		{Ops: []DeltaEdge{{Op: DeltaOp(9), From: 0, To: 1, Weight: 1}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid delta", i)
		}
	}
	ok := Delta{Ops: []DeltaEdge{
		{Op: DeltaSet, From: 0, To: 1, Weight: 0},
		{Op: DeltaRemove, From: 0, To: 1},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected valid delta: %v", err)
	}
}

func TestDeltaHashChaining(t *testing.T) {
	g := mustGraph(t, "0 1\n1 2\n", false)
	parent := g.CanonicalHash()
	d1 := &Delta{Ops: []DeltaEdge{{Op: DeltaAdd, From: 0, To: 2, Weight: 1}}}
	d2 := &Delta{Ops: []DeltaEdge{{Op: DeltaAdd, From: 0, To: 2, Weight: 2}}}

	if d1.Hash(parent) != d1.Hash(parent) {
		t.Fatal("hash not deterministic")
	}
	if d1.Hash(parent) == d2.Hash(parent) {
		t.Fatal("different weights should hash differently")
	}
	other := mustGraph(t, "0 1\n", false).CanonicalHash()
	if d1.Hash(parent) == d1.Hash(other) {
		t.Fatal("same delta on different parents should hash differently")
	}
	// Op order matters: a set after an add differs from an add after a set.
	a := &Delta{Ops: []DeltaEdge{
		{Op: DeltaAdd, From: 0, To: 2, Weight: 1},
		{Op: DeltaSet, From: 0, To: 2, Weight: 3},
	}}
	b := &Delta{Ops: []DeltaEdge{
		{Op: DeltaSet, From: 0, To: 2, Weight: 3},
		{Op: DeltaAdd, From: 0, To: 2, Weight: 1},
	}}
	if a.Hash(parent) == b.Hash(parent) {
		t.Fatal("op order should change the hash")
	}
	// Remove weight is canonicalized: the field can't perturb the digest.
	r1 := &Delta{Ops: []DeltaEdge{{Op: DeltaRemove, From: 0, To: 1, Weight: 0}}}
	r2 := &Delta{Ops: []DeltaEdge{{Op: DeltaRemove, From: 0, To: 1, Weight: 42}}}
	if r1.Hash(parent) != r2.Hash(parent) {
		t.Fatal("remove weight should not affect the hash")
	}
}

func TestDeltaTouched(t *testing.T) {
	d := &Delta{Ops: []DeltaEdge{
		{Op: DeltaAdd, From: 5, To: 1, Weight: 1},
		{Op: DeltaRemove, From: 1, To: 5},
		{Op: DeltaSet, From: 3, To: 3, Weight: 2},
	}}
	got := d.Touched()
	want := []uint32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Touched = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Touched = %v, want %v", got, want)
		}
	}
}

func TestKHopFrontier(t *testing.T) {
	// Path graph 0-1-2-3-4.
	g := mustGraph(t, "0 1\n1 2\n2 3\n3 4\n", false)

	f0 := KHopFrontier(g, []uint32{2}, 0)
	for u, in := range f0 {
		if in != (u == 2) {
			t.Fatalf("hops=0 frontier[%d] = %v", u, in)
		}
	}
	f1 := KHopFrontier(g, []uint32{2}, 1)
	wantIn := map[int]bool{1: true, 2: true, 3: true}
	for u, in := range f1 {
		if in != wantIn[u] {
			t.Fatalf("hops=1 frontier[%d] = %v", u, in)
		}
	}
	f9 := KHopFrontier(g, []uint32{0}, 9)
	for u, in := range f9 {
		if !in {
			t.Fatalf("hops=9 from 0 should cover all, missing %d", u)
		}
	}
	// Out-of-range seeds (new vertices) are ignored.
	fx := KHopFrontier(g, []uint32{99}, 3)
	for u, in := range fx {
		if in {
			t.Fatalf("out-of-range seed marked vertex %d", u)
		}
	}
}

func TestKHopFrontierDirectedWalksBothWays(t *testing.T) {
	g := mustGraph(t, "0 1\n2 1\n", true)
	f := KHopFrontier(g, []uint32{1}, 1)
	if !f[0] || !f[1] || !f[2] {
		t.Fatalf("directed frontier should include in-neighbors: %v", f)
	}
}

func TestDeltaListRoundTrip(t *testing.T) {
	input := "# evolving batch\n+ 0 1\n+ 1 2 2.5\n- 2 3\n= 4 5 0\n= 4 6 1.75\n"
	d, err := ReadDeltaList(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadDeltaList: %v", err)
	}
	if len(d.Ops) != 5 {
		t.Fatalf("parsed %d ops, want 5", len(d.Ops))
	}
	if d.Ops[0] != (DeltaEdge{Op: DeltaAdd, From: 0, To: 1, Weight: 1}) {
		t.Fatalf("op 0 = %+v", d.Ops[0])
	}
	if d.Ops[2] != (DeltaEdge{Op: DeltaRemove, From: 2, To: 3, Weight: 0}) {
		t.Fatalf("op 2 = %+v", d.Ops[2])
	}
	var buf bytes.Buffer
	if err := d.WriteDeltaList(&buf); err != nil {
		t.Fatalf("WriteDeltaList: %v", err)
	}
	d2, err := ReadDeltaList(&buf)
	if err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	if len(d2.Ops) != len(d.Ops) {
		t.Fatalf("round trip changed op count: %d vs %d", len(d2.Ops), len(d.Ops))
	}
	for i := range d.Ops {
		if d.Ops[i] != d2.Ops[i] {
			t.Fatalf("op %d changed in round trip: %+v vs %+v", i, d.Ops[i], d2.Ops[i])
		}
	}
}

func TestDeltaListParseErrors(t *testing.T) {
	cases := []string{
		"* 0 1\n",        // unknown op
		"+ 0\n",          // too few fields
		"+ a 1\n",        // bad source
		"+ 0 b\n",        // bad target
		"+ 0 1 -2\n",     // negative add weight
		"+ 0 1 +Inf\n",   // infinite weight
		"- 0 1 2\n",      // remove with weight
		"= 0 1\n",        // set without weight
		"= 0 1 -1\n",     // negative set weight
		"= 0 1 NaN\n",    // NaN weight
		"+ 0 1 banana\n", // unparseable weight
	}
	for _, in := range cases {
		if _, err := ReadDeltaList(strings.NewReader(in)); err == nil {
			t.Errorf("accepted invalid delta input %q", in)
		}
	}
}

// TestDeltaApplyBoundsGrowth pins the vertex bound: a batch of k ops can
// introduce at most 2k new vertices, so an endpoint at or beyond
// parent.N() + 2k is rejected before anything is sized from it.
func TestDeltaApplyBoundsGrowth(t *testing.T) {
	g := mustGraph(t, "0 1\n1 2\n", false) // 3 vertices
	for _, tc := range []struct {
		ops []DeltaEdge
		ok  bool
	}{
		{[]DeltaEdge{{Op: DeltaAdd, From: 3, To: 4, Weight: 1}}, true},
		{[]DeltaEdge{{Op: DeltaAdd, From: 0, To: 4, Weight: 1}}, true},
		{[]DeltaEdge{{Op: DeltaAdd, From: 0, To: 5, Weight: 1}}, false},
		{[]DeltaEdge{{Op: DeltaRemove, From: 5, To: 0}}, false},
		{[]DeltaEdge{{Op: DeltaAdd, From: 4294967295, To: 0, Weight: 1}}, false},
		{[]DeltaEdge{
			{Op: DeltaAdd, From: 0, To: 1, Weight: 1},
			{Op: DeltaSet, From: 6, To: 6, Weight: 2},
		}, true},
	} {
		d := &Delta{Ops: tc.ops}
		child, err := d.Apply(g)
		if tc.ok != (err == nil) {
			t.Fatalf("ops %+v: Apply error %v, want ok=%v", tc.ops, err, tc.ok)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("ops %+v: error %q does not name the range", tc.ops, err)
			}
			continue
		}
		if err := child.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// An empty parent: "+ 222222210 10" once sized a 222M-vertex graph.
	empty := NewBuilder(0, false).Build()
	d := &Delta{Ops: []DeltaEdge{{Op: DeltaAdd, From: 222222210, To: 10, Weight: 1}}}
	if _, err := d.Apply(empty); err == nil {
		t.Fatal("Apply accepted a 1-op batch naming vertex 222222210 on an empty parent")
	}
}
