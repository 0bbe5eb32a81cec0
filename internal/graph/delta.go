package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// DeltaOp identifies one kind of edge mutation in a delta batch.
type DeltaOp uint8

const (
	// DeltaAdd adds weight to an edge, creating it if absent (weights sum,
	// matching Builder's duplicate-arc merge).
	DeltaAdd DeltaOp = iota
	// DeltaRemove deletes an edge entirely; removing an absent edge is a
	// no-op so deltas replay idempotently.
	DeltaRemove
	// DeltaSet overwrites an edge's weight (upsert); setting weight 0
	// removes the edge.
	DeltaSet
)

// DeltaEdge is one edge mutation. From/To are dense vertex IDs in the parent
// graph's ID space; IDs at or beyond the parent's N() grow the graph.
type DeltaEdge struct {
	Op       DeltaOp
	From, To uint32
	Weight   float64 // ignored for DeltaRemove
}

// Delta is an ordered, append-only batch of edge mutations against a parent
// graph. Order matters (a DeltaSet after a DeltaAdd overwrites the sum), so
// the canonical hash covers ops in sequence and replaying the same batch is
// always bit-identical.
type Delta struct {
	Ops []DeltaEdge
}

// deltaHashVersion tags the byte layout of Delta.Hash, mirroring
// canonicalHashVersion for graphs.
const deltaHashVersion = "asamap-delta-v1\n"

// Hash chains the delta onto its parent graph's CanonicalHash, producing the
// content address of the child version: SHA-256 over a version tag, the
// parent digest, and every op in order (op byte, endpoints, IEEE-754 weight
// bits, little-endian). Two versions collide only if they share both lineage
// and the exact mutation sequence.
func (d *Delta) Hash(parent [32]byte) [32]byte {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(deltaHashVersion))
	h.Write(parent[:])
	writeU64(uint64(len(d.Ops)))
	for _, op := range d.Ops {
		h.Write([]byte{byte(op.Op)})
		writeU64(uint64(op.From))
		writeU64(uint64(op.To))
		w := op.Weight
		if op.Op == DeltaRemove {
			w = 0 // removals carry no weight; canonicalize so it can't skew the hash
		}
		writeU64(math.Float64bits(w))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Validate checks every op for weight sanity: DeltaAdd needs a positive
// finite weight, DeltaSet a non-negative finite weight (0 means remove).
func (d *Delta) Validate() error {
	for i, op := range d.Ops {
		switch op.Op {
		case DeltaAdd:
			if !(op.Weight > 0) || math.IsInf(op.Weight, 0) {
				return fmt.Errorf("graph: delta op %d: add with non-positive or non-finite weight %g", i, op.Weight)
			}
		case DeltaRemove:
			// weight ignored
		case DeltaSet:
			if !(op.Weight >= 0) || math.IsInf(op.Weight, 0) {
				return fmt.Errorf("graph: delta op %d: set with negative or non-finite weight %g", i, op.Weight)
			}
		default:
			return fmt.Errorf("graph: delta op %d: unknown op %d", i, uint8(op.Op))
		}
	}
	return nil
}

// arcKey canonicalizes an edge: undirected edges are keyed with the smaller
// endpoint first so (u,v) and (v,u) name the same edge, matching the
// mirrored CSR storage.
func arcKey(directed bool, u, v uint32) [2]uint32 {
	if !directed && v < u {
		return [2]uint32{v, u}
	}
	return [2]uint32{u, v}
}

// edgeEdit is the net effect of a batch on one edge: its final weight,
// where 0 means the edge is absent.
type edgeEdit struct {
	key [2]uint32
	w   float64
}

// Apply replays the batch against g and returns the child graph, canonical
// CSR exactly as if its full edge list had been read cold — the property the
// FuzzDeltaReplay oracle pins. Vertex IDs at or beyond g.N() grow the vertex
// set; removed edges may leave isolated vertices behind (the vertex set
// never shrinks, so parent and child memberships stay index-compatible).
// An op may name a vertex below g.N() + 2·len(d.Ops), the most new vertices
// a batch can introduce, so a few bytes of delta cannot size a huge graph.
//
// The cost is linear in the parent plus O(k log k) for k ops: the ops are
// stably sorted by edge and each edge's ops fold in op order onto the
// parent's weight, then every parent row (the v >= u half when undirected)
// streams into a Builder merged with the folded edits, in ascending edge
// order.
func (d *Delta) Apply(g *Graph) (*Graph, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	directed, parentN := g.Directed(), g.N()
	limit := uint64(parentN) + 2*uint64(len(d.Ops))
	n := parentN
	for i, op := range d.Ops {
		hi := max(op.From, op.To)
		if uint64(hi) >= limit {
			return nil, fmt.Errorf("graph: delta op %d: vertex %d out of range: a %d-op batch on a %d-vertex parent can name vertices below %d",
				i, hi, len(d.Ops), parentN, limit)
		}
		n = max(n, int(hi)+1)
	}

	// Fold each edge's ops in op order, starting from the parent's weight.
	ops := slices.Clone(d.Ops)
	slices.SortStableFunc(ops, func(a, b DeltaEdge) int {
		ka, kb := arcKey(directed, a.From, a.To), arcKey(directed, b.From, b.To)
		return slices.Compare(ka[:], kb[:])
	})
	var edits []edgeEdit
	for _, op := range ops {
		k := arcKey(directed, op.From, op.To)
		if len(edits) == 0 || edits[len(edits)-1].key != k {
			e := edgeEdit{key: k}
			if int(k[0]) < parentN {
				e.w, _ = g.ArcWeight(int(k[0]), int(k[1]))
			}
			edits = append(edits, e)
		}
		e := &edits[len(edits)-1]
		switch op.Op {
		case DeltaAdd:
			e.w += op.Weight
		case DeltaRemove:
			e.w = 0
		case DeltaSet:
			e.w = op.Weight
		}
	}

	b := NewBuilder(n, directed)
	b.Reserve(g.M() + 2*len(edits))
	next := 0 // first edit not yet merged
	for u := 0; u < n; u++ {
		var nb []uint32
		var ws []float64
		if u < parentN {
			nb, ws = g.OutNeighbors(u), g.OutWeights(u)
		}
		i := 0
		if !directed {
			for i < len(nb) && int(nb[i]) < u {
				i++
			}
		}
		editHere := func() bool { return next < len(edits) && int(edits[next].key[0]) == u }
		for i < len(nb) || editHere() {
			var v uint32
			var w float64
			if editHere() && (i == len(nb) || edits[next].key[1] <= nb[i]) {
				if i < len(nb) && edits[next].key[1] == nb[i] {
					i++ // the edit replaces the parent's arc
				}
				v, w = edits[next].key[1], edits[next].w
				next++
			} else {
				v, w = nb[i], ws[i]
				i++
			}
			// Removed edges carry weight 0; every other weight is a positive
			// sum, which can still overflow.
			if !(w > 0) {
				continue
			}
			if math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: delta: accumulated weight on edge (%d,%d) overflowed to %g", u, v, w)
			}
			b.add(uint32(u), v, w)
		}
	}
	return b.Build(), nil
}

// Touched returns the sorted, de-duplicated endpoints named by any op in the
// batch — the seed set for the warm-start k-hop frontier. No-op mutations
// (removing an absent edge) still contribute their endpoints: the frontier
// over-approximates, never under-approximates.
func (d *Delta) Touched() []uint32 {
	seen := make(map[uint32]struct{}, 2*len(d.Ops))
	for _, op := range d.Ops {
		seen[op.From] = struct{}{}
		seen[op.To] = struct{}{}
	}
	return SortedKeys(seen)
}

// KHopFrontier marks every vertex of g within hops hops of a seed, walking
// both out- and in-neighbors (so directed deltas thaw upstream vertices
// whose flow changed too). Seeds outside [0, g.N()) are ignored — they name
// vertices that only exist in the child graph. hops=0 marks the seeds alone.
func KHopFrontier(g *Graph, seeds []uint32, hops int) []bool {
	frontier := make([]bool, g.N())
	var cur []uint32
	for _, s := range seeds {
		if int(s) < g.N() && !frontier[s] {
			frontier[s] = true
			cur = append(cur, s)
		}
	}
	for h := 0; h < hops && len(cur) > 0; h++ {
		var next []uint32
		for _, u := range cur {
			for _, v := range g.OutNeighbors(int(u)) {
				if !frontier[v] {
					frontier[v] = true
					next = append(next, v)
				}
			}
			for _, v := range g.InNeighbors(int(u)) {
				if !frontier[v] {
					frontier[v] = true
					next = append(next, v)
				}
			}
		}
		cur = next
	}
	return frontier
}

// ReadDeltaList parses the delta text format, one op per line:
//
//	# comment lines start with '#'
//	+ <from> <to> [weight]   add (weight defaults to 1)
//	- <from> <to>            remove
//	= <from> <to> <weight>   set (weight 0 removes)
//
// Vertex IDs are dense uint32 in the parent graph's ID space — no label
// remapping happens here (cmd/infomap remaps labels before building the
// delta, and the serve API works in dense IDs throughout).
func ReadDeltaList(r io.Reader) (*Delta, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var d Delta
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var op DeltaOp
		switch fields[0] {
		case "+":
			op = DeltaAdd
		case "-":
			op = DeltaRemove
		case "=":
			op = DeltaSet
		default:
			return nil, fmt.Errorf("graph: delta line %d: want op '+', '-' or '=', got %q", lineNo, fields[0])
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("graph: delta line %d: want at least 3 fields, got %q", lineNo, line)
		}
		from, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: delta line %d: bad source %q: %v", lineNo, fields[1], err)
		}
		to, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: delta line %d: bad target %q: %v", lineNo, fields[2], err)
		}
		e := DeltaEdge{Op: op, From: uint32(from), To: uint32(to), Weight: 1}
		switch op {
		case DeltaAdd:
			if len(fields) >= 4 {
				e.Weight, err = strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("graph: delta line %d: bad weight %q: %v", lineNo, fields[3], err)
				}
				if !(e.Weight > 0) || math.IsInf(e.Weight, 0) {
					return nil, fmt.Errorf("graph: delta line %d: non-positive or non-finite weight %g", lineNo, e.Weight)
				}
			}
		case DeltaRemove:
			e.Weight = 0
			if len(fields) > 3 {
				return nil, fmt.Errorf("graph: delta line %d: remove takes no weight, got %q", lineNo, line)
			}
		case DeltaSet:
			if len(fields) < 4 {
				return nil, fmt.Errorf("graph: delta line %d: set needs an explicit weight, got %q", lineNo, line)
			}
			e.Weight, err = strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: delta line %d: bad weight %q: %v", lineNo, fields[3], err)
			}
			if !(e.Weight >= 0) || math.IsInf(e.Weight, 0) {
				return nil, fmt.Errorf("graph: delta line %d: negative or non-finite weight %g", lineNo, e.Weight)
			}
		}
		d.Ops = append(d.Ops, e)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("graph: delta line %d: %w (lines are limited to 1 MiB)", lineNo+1, err)
		}
		return nil, fmt.Errorf("graph: scanning delta list: %w", err)
	}
	return &d, nil
}

// ReadDeltaListFile opens path and parses it with ReadDeltaList.
func ReadDeltaListFile(path string) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDeltaList(f)
}

// WriteDeltaList emits the batch in the delta text format; ReadDeltaList on
// the output reproduces the ops bit for bit.
func (d *Delta) WriteDeltaList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# delta: %d ops\n", len(d.Ops))
	for _, op := range d.Ops {
		switch op.Op {
		case DeltaAdd:
			if op.Weight == 1 {
				fmt.Fprintf(bw, "+ %d %d\n", op.From, op.To)
			} else {
				fmt.Fprintf(bw, "+ %d %d %g\n", op.From, op.To, op.Weight)
			}
		case DeltaRemove:
			fmt.Fprintf(bw, "- %d %d\n", op.From, op.To)
		case DeltaSet:
			fmt.Fprintf(bw, "= %d %d %g\n", op.From, op.To, op.Weight)
		}
	}
	return bw.Flush()
}
