package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a SNAP-style whitespace-separated edge list:
//
//	# comment lines start with '#'
//	<from> <to> [weight]
//
// Vertex IDs may be arbitrary non-negative integers; they are remapped to a
// dense [0, N) range in first-appearance order. Missing weights default to 1.
// The returned mapping gives, for each dense ID, the original label.
//
// Lines of exactly two ASCII decimal fields, the bulk of any large edge
// list, are parsed straight from the scanner's bytes with no allocation.
// Every other line — comments, weights, non-ASCII whitespace, very long
// IDs, malformed input — takes the strings.Fields path, which alone decides
// what is accepted and how errors read.
func ReadEdgeList(r io.Reader, directed bool) (*Graph, []uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	idOf := make(map[uint64]uint32)
	var labels []uint64
	dense := func(raw uint64) uint32 {
		if id, ok := idOf[raw]; ok {
			return id
		}
		id := uint32(len(labels))
		idOf[raw] = id
		labels = append(labels, raw)
		return id
	}

	// Arcs go straight into the builder; its vertex count is known only
	// once every label has been seen, and dense IDs are in range by
	// construction.
	b := NewBuilder(0, directed)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if a, c, ok := scanIDPair(sc.Bytes()); ok {
			b.add(dense(a), dense(c), 1)
			continue
		}
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
		bb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
			// !(w > 0) catches NaN as well as zero and negatives; +Inf must
			// be rejected separately or it poisons every flow downstream.
			if !(w > 0) || math.IsInf(w, 0) {
				return nil, nil, fmt.Errorf("graph: line %d: non-positive or non-finite weight %g", lineNo, w)
			}
		}
		b.add(dense(a), dense(bb), w)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stops on the line after the last one it delivered;
			// naming it turns "token too long" into an actionable message.
			return nil, nil, fmt.Errorf("graph: line %d: %w (lines are limited to 1 MiB)", lineNo+1, err)
		}
		return nil, nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	b.n = len(labels)
	return b.Build(), labels, nil
}

// scanIDPair parses a line made of exactly two decimal fields of at most 19
// digits (so no overflow is possible), separated and surrounded only by
// ASCII whitespace. It reports false for anything else, leaving that line to
// the general parser; on the lines it accepts the two agree, because
// strings.Fields splits ASCII text on exactly these six bytes.
func scanIDPair(line []byte) (a, b uint64, ok bool) {
	i := skipASCIISpace(line, 0)
	if a, i, ok = scanDecimal(line, i); !ok {
		return 0, 0, false
	}
	if b, i, ok = scanDecimal(line, skipASCIISpace(line, i)); !ok {
		return 0, 0, false
	}
	return a, b, skipASCIISpace(line, i) == len(line)
}

// scanDecimal parses the run of ASCII digits at line[i:], which must be 1 to
// 19 digits long and end at ASCII whitespace or the end of the line.
func scanDecimal(line []byte, i int) (v uint64, next int, ok bool) {
	start := i
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		if i-start == 19 {
			return 0, 0, false
		}
		v = v*10 + uint64(d)
	}
	if i == start || i < len(line) && !isASCIISpace(line[i]) {
		return 0, 0, false
	}
	return v, i, true
}

func skipASCIISpace(line []byte, i int) int {
	for i < len(line) && isASCIISpace(line[i]) {
		i++
	}
	return i
}

// isASCIISpace reports the ASCII bytes unicode.IsSpace accepts.
func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// ReadEdgeListFile opens path and parses it with ReadEdgeList.
func ReadEdgeListFile(path string, directed bool) (*Graph, []uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadEdgeList(f, directed)
}

// WriteEdgeList emits the graph in SNAP edge-list format. Undirected edges
// are written once (u <= v); weights are written only when not 1.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	dir := "undirected"
	if g.directed {
		dir = "directed"
	}
	fmt.Fprintf(bw, "# %s graph: %d vertices, %d arcs\n", dir, g.n, g.M())
	for u := 0; u < g.n; u++ {
		nb, ws := g.OutNeighbors(u), g.OutWeights(u)
		for i, v := range nb {
			if !g.directed && int(v) < u {
				continue
			}
			if ws[i] == 1 {
				fmt.Fprintf(bw, "%d\t%d\n", u, v)
			} else {
				fmt.Fprintf(bw, "%d\t%d\t%g\n", u, v, ws[i])
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes the graph to path in SNAP edge-list format.
func (g *Graph) WriteEdgeListFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
