package export

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
)

func testGraph(t *testing.T) (*graph.Graph, []uint32) {
	t.Helper()
	b := graph.NewBuilder(6, false)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(), []uint32{0, 0, 0, 1, 1, 1}
}

func TestWriteGEXFWellFormed(t *testing.T) {
	g, mem := testGraph(t)
	var buf bytes.Buffer
	if err := WriteGEXF(&buf, g, mem); err != nil {
		t.Fatal(err)
	}
	nodes, edges, err := parseGEXFCounts(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("generated GEXF is not well-formed XML: %v", err)
	}
	if nodes != 6 || edges != 7 {
		t.Fatalf("GEXF has %d nodes, %d edges; want 6/7", nodes, edges)
	}
	if !strings.Contains(buf.String(), "viz:color") {
		t.Fatal("GEXF missing community colors")
	}
	if !strings.Contains(buf.String(), `defaultedgetype="undirected"`) {
		t.Fatal("GEXF missing edge type")
	}
}

func TestWriteGEXFNoMembership(t *testing.T) {
	g, _ := testGraph(t)
	var buf bytes.Buffer
	if err := WriteGEXF(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "attvalue") {
		t.Fatal("attributes emitted without membership")
	}
}

func TestWriteGEXFValidation(t *testing.T) {
	g, _ := testGraph(t)
	var buf bytes.Buffer
	if err := WriteGEXF(&buf, g, []uint32{0}); err == nil {
		t.Fatal("short membership accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g, mem := testGraph(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, mem); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph communities {") {
		t.Fatalf("DOT header wrong: %q", out[:30])
	}
	if strings.Count(out, "--") != 7 {
		t.Fatalf("DOT has %d edges, want 7", strings.Count(out, "--"))
	}
	if !strings.Contains(out, "fillcolor") {
		t.Fatal("DOT missing colors")
	}
}

func TestWriteDOTDirected(t *testing.T) {
	b := graph.NewBuilder(2, true)
	_ = b.AddEdge(0, 1, 2)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, b.Build(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") || !strings.Contains(buf.String(), "->") {
		t.Fatalf("directed DOT wrong:\n%s", buf.String())
	}
}

func TestColorsCycleDistinctly(t *testing.T) {
	r0, g0, b0 := Color(0)
	r1, g1, b1 := Color(1)
	if r0 == r1 && g0 == g1 && b0 == b1 {
		t.Fatal("adjacent modules share a color")
	}
	// Cycle wraps safely.
	Color(1 << 30)
}

func TestFileRoundTrip(t *testing.T) {
	g, _ := testGraph(t)
	res, err := infomap.Run(g, infomap.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteGEXFFile(dir+"/g.gexf", g, res.Membership); err != nil {
		t.Fatal(err)
	}
	if err := WriteDOTFile(dir+"/g.dot", g, res.Membership); err != nil {
		t.Fatal(err)
	}
}

func TestExportLargerGraph(t *testing.T) {
	g, mem, err := gen.CliqueChain(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGEXF(&buf, g, mem); err != nil {
		t.Fatal(err)
	}
	nodes, edges, err := parseGEXFCounts(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if nodes != g.N() || edges != g.NumEdges() {
		t.Fatalf("GEXF %d/%d vs graph %d/%d", nodes, edges, g.N(), g.NumEdges())
	}
}

// gexfDoc is the minimal schema used to validate generated GEXF.
type gexfDoc struct {
	XMLName xml.Name  `xml:"gexf"`
	Graph   gexfGraph `xml:"graph"`
}

type gexfGraph struct {
	Nodes []gexfNode `xml:"nodes>node"`
	Edges []gexfEdge `xml:"edges>edge"`
}

type gexfNode struct {
	ID string `xml:"id,attr"`
}

type gexfEdge struct {
	Source string `xml:"source,attr"`
	Target string `xml:"target,attr"`
}

// parseGEXFCounts parses GEXF and returns (nodes, edges), to verify
// well-formedness without a full GEXF implementation.
func parseGEXFCounts(r io.Reader) (int, int, error) {
	var doc gexfDoc
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return 0, 0, err
	}
	return len(doc.Graph.Nodes), len(doc.Graph.Edges), nil
}
