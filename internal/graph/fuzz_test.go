package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList: arbitrary input must never panic, must parse exactly as
// the strings.Fields reference parser does, and accepted input must produce
// a graph that validates and survives a write/read round trip.
// FuzzDeltaReplay: for any parseable (graph, delta) pair, Delta.Apply must
// match an independent oracle that replays the ops onto a plain edge map and
// rebuilds the graph from scratch — canonically hash-identical, structurally
// valid, and with a deterministic chained hash. Seeds cover duplicate adds,
// remove-nonexistent, reweight-to-zero, self-loops, and a one-op batch naming
// a vertex far beyond the bound on new vertices, which must fail fast.
func FuzzDeltaReplay(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n", "+ 0 1\n+ 0 1 2\n", false)
	f.Add("0 1\n", "- 5 6\n- 0 1\n", false)
	f.Add("0 1 2\n1 2 3\n", "= 0 1 0\n= 1 2 0.5\n", false)
	f.Add("0 0 1.5\n0 1\n", "+ 1 1\n+ 2 2 0.25\n- 0 0\n", false)
	f.Add("0 1\n1 2\n", "+ 3 4 2\n= 4 5 1\n- 1 2\n", true)
	f.Add("", "+ 0 0\n", false)
	f.Fuzz(func(t *testing.T, graphInput, deltaInput string, directed bool) {
		g, _, err := ReadEdgeList(strings.NewReader(graphInput), directed)
		if err != nil {
			return
		}
		d, err := ReadDeltaList(strings.NewReader(deltaInput))
		if err != nil {
			return
		}
		// A batch of k ops names at most 2k new vertices; Apply must
		// reject anything beyond before sizing the child from it.
		limit := uint64(g.N()) + 2*uint64(len(d.Ops))
		for _, op := range d.Ops {
			if uint64(max(op.From, op.To)) >= limit {
				if _, err := d.Apply(g); err == nil {
					t.Fatalf("Apply accepted vertex %d beyond the bound %d (graph %q delta %q)", max(op.From, op.To), limit, graphInput, deltaInput)
				}
				return
			}
		}
		child, err := d.Apply(g)
		if err != nil {
			// Apply may legitimately reject (e.g. accumulated weight
			// overflow); it must just never produce a bad graph.
			return
		}
		if err := child.Validate(); err != nil {
			t.Fatalf("applied graph fails validation: %v (graph %q delta %q)", err, graphInput, deltaInput)
		}

		// Oracle: replay onto a bare map, then rebuild from scratch.
		key := func(u, v uint32) [2]uint32 {
			if !directed && v < u {
				return [2]uint32{v, u}
			}
			return [2]uint32{u, v}
		}
		weight := make(map[[2]uint32]float64)
		for u := 0; u < g.N(); u++ {
			nb, ws := g.OutNeighbors(u), g.OutWeights(u)
			for i, v := range nb {
				if !directed && int(v) < u {
					continue
				}
				weight[key(uint32(u), v)] = ws[i]
			}
		}
		n := g.N()
		for _, op := range d.Ops {
			if int(op.From) >= n {
				n = int(op.From) + 1
			}
			if int(op.To) >= n {
				n = int(op.To) + 1
			}
			switch op.Op {
			case DeltaAdd:
				weight[key(op.From, op.To)] += op.Weight
			case DeltaRemove:
				delete(weight, key(op.From, op.To))
			case DeltaSet:
				if op.Weight == 0 {
					delete(weight, key(op.From, op.To))
				} else {
					weight[key(op.From, op.To)] = op.Weight
				}
			}
		}
		b := NewBuilder(n, directed)
		for _, k := range SortedKeysFunc(weight, func(a, b [2]uint32) int {
			if a[0] != b[0] {
				if a[0] < b[0] {
					return -1
				}
				return 1
			}
			if a[1] < b[1] {
				return -1
			} else if a[1] > b[1] {
				return 1
			}
			return 0
		}) {
			if w := weight[k]; w > 0 && !math.IsInf(w, 0) {
				if err := b.AddEdge(k[0], k[1], w); err != nil {
					t.Fatalf("oracle AddEdge: %v", err)
				}
			}
		}
		oracle := b.Build()
		if child.CanonicalHash() != oracle.CanonicalHash() {
			t.Fatalf("Apply diverged from scratch rebuild (graph %q delta %q)", graphInput, deltaInput)
		}

		// Chained hash is a pure function of (parent, ops).
		parent := g.CanonicalHash()
		if d.Hash(parent) != d.Hash(parent) {
			t.Fatal("delta hash not deterministic")
		}
		// Text round trip preserves the ops and therefore the hash.
		var buf bytes.Buffer
		if err := d.WriteDeltaList(&buf); err != nil {
			t.Fatalf("WriteDeltaList: %v", err)
		}
		d2, err := ReadDeltaList(&buf)
		if err != nil {
			t.Fatalf("delta round trip rejected: %v", err)
		}
		if d2.Hash(parent) != d.Hash(parent) {
			t.Fatal("delta round trip changed the chained hash")
		}
	})
}

// referenceReadEdgeList is the reader before its byte-level fast path:
// every line goes through strings.TrimSpace, strings.Fields and strconv.
// FuzzReadEdgeList holds ReadEdgeList to it byte for byte.
func referenceReadEdgeList(input string, directed bool) (*Graph, []uint64, error) {
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	idOf := make(map[uint64]uint32)
	var labels []uint64
	dense := func(raw uint64) uint32 {
		if id, ok := idOf[raw]; ok {
			return id
		}
		idOf[raw] = uint32(len(labels))
		labels = append(labels, raw)
		return idOf[raw]
	}
	var edges []Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		a, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		c, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
			if !(w > 0) || math.IsInf(w, 0) {
				return nil, nil, fmt.Errorf("graph: line %d: non-positive or non-finite weight %g", lineNo, w)
			}
		}
		edges = append(edges, Edge{dense(a), dense(c), w})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, nil, fmt.Errorf("graph: line %d: %w (lines are limited to 1 MiB)", lineNo+1, err)
		}
		return nil, nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	b := NewBuilder(len(labels), directed)
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			return nil, nil, err
		}
	}
	return b.Build(), labels, nil
}

// matchReferenceReadEdgeList fails t unless ReadEdgeList and
// referenceReadEdgeList agree on input: the same error text, or the same
// labels and canonical hash. It returns the graph, or nil on an error.
func matchReferenceReadEdgeList(t *testing.T, input string) *Graph {
	t.Helper()
	g, labels, err := ReadEdgeList(strings.NewReader(input), false)
	rg, rlabels, rerr := referenceReadEdgeList(input, false)
	if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
		t.Fatalf("error %v, reference %v (input %.200q)", err, rerr, input)
	}
	if err != nil {
		return nil
	}
	if !slices.Equal(labels, rlabels) {
		t.Fatalf("labels %v, reference %v (input %.200q)", labels, rlabels, input)
	}
	if g.CanonicalHash() != rg.CanonicalHash() {
		t.Fatalf("graph differs from the reference parse (input %.200q)", input)
	}
	return g
}

// TestReadEdgeListMatchesReferenceAtLineLimit runs the fuzz oracle on lines
// at the scanner's 1 MiB limit. They are not fuzz seeds: mutating inputs
// that large stalls the fuzzer.
func TestReadEdgeListMatchesReferenceAtLineLimit(t *testing.T) {
	for _, pad := range []int{1<<20 - 4, 1<<20 - 3} {
		line := strings.Repeat(" ", pad) + "7 8" // 1 MiB - 1, then exactly 1 MiB
		g := matchReferenceReadEdgeList(t, "1 2\n"+line+"\n3 4\n")
		if accepted := g != nil; accepted != (len(line) < 1<<20) {
			t.Fatalf("line of %d bytes: accepted=%v", len(line), accepted)
		}
	}
}

// FuzzReadEdgeList: arbitrary input must never panic; ReadEdgeList must
// agree with referenceReadEdgeList on the graph's canonical hash, the
// labels and the error text; an accepted graph must validate and survive a
// write/read round trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("1 2\n2 3\n")
	f.Add("# comment\n5 5 2.5\n")
	f.Add("0 1 0.1\n1 0 0.2\n")
	f.Add("")
	f.Add("a b c\n")
	f.Add("1\t2\t3\t4\n")
	f.Add("0 1\r\n1 2\r\n\r\n2 0\r\n")
	f.Add("\t0\t1\t\n\v1\f2\r\n")
	f.Add("0\u00a01\n1\u00852\n\u00a0 2 3\n")
	f.Add("1\u00a92\n")
	f.Add("+1 2\n3 +4\n")
	f.Add("18446744073709551615 1\n9999999999999999999 18446744073709551615\n")
	f.Add("18446744073709551616 1\n")
	f.Add("00000000000000000001 2\n")
	f.Add("1 2 3 4 5\n2 3 junk\n")
	f.Add("% matrix-market style comment\n1 2\n  % indented\n")
	f.Add("1\n")
	f.Add("1 2x\n")
	f.Add("1 -2\n")
	f.Fuzz(func(t *testing.T, input string) {
		g := matchReferenceReadEdgeList(t, input)
		if g == nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v (input %q)", err, input)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		g2, _, err := ReadEdgeList(&buf, false)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}
