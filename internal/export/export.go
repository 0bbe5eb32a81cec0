// Package export writes graphs with community assignments in formats that
// visualization tools consume: GEXF (Gephi — the tool the paper's Figure 1
// was made with) and Graphviz DOT. Communities are encoded as node
// attributes and a qualitative color per module.
package export

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"github.com/asamap/asamap/internal/graph"
)

// palette is a qualitative 12-color cycle (ColorBrewer Set3-like).
var palette = [][3]uint8{
	{141, 211, 199}, {255, 255, 179}, {190, 186, 218}, {251, 128, 114},
	{128, 177, 211}, {253, 180, 98}, {179, 222, 105}, {252, 205, 229},
	{217, 217, 217}, {188, 128, 189}, {204, 235, 197}, {255, 237, 111},
}

// Color returns the RGB color assigned to module m.
func Color(m uint32) (r, g, b uint8) {
	c := palette[int(m)%len(palette)]
	return c[0], c[1], c[2]
}

// WriteGEXF writes the graph in GEXF 1.2 format with a "module" attribute
// and viz colors per community. membership may be nil (no attributes).
func WriteGEXF(w io.Writer, g *graph.Graph, membership []uint32) error {
	if membership != nil && len(membership) != g.N() {
		return fmt.Errorf("export: membership length %d, want %d", len(membership), g.N())
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, `<?xml version="1.0" encoding="UTF-8"?>`)
	fmt.Fprintln(bw, `<gexf xmlns="http://www.gexf.net/1.2draft" xmlns:viz="http://www.gexf.net/1.2draft/viz" version="1.2">`)
	mode := "undirected"
	if g.Directed() {
		mode = "directed"
	}
	fmt.Fprintf(bw, `  <graph defaultedgetype="%s">`+"\n", mode)
	if membership != nil {
		fmt.Fprintln(bw, `    <attributes class="node">`)
		fmt.Fprintln(bw, `      <attribute id="0" title="module" type="integer"/>`)
		fmt.Fprintln(bw, `    </attributes>`)
	}
	fmt.Fprintln(bw, `    <nodes>`)
	for v := 0; v < g.N(); v++ {
		if membership == nil {
			fmt.Fprintf(bw, `      <node id="%d" label="%d"/>`+"\n", v, v)
			continue
		}
		r, gg, b := Color(membership[v])
		fmt.Fprintf(bw, `      <node id="%d" label="%d">`+"\n", v, v)
		fmt.Fprintf(bw, `        <attvalues><attvalue for="0" value="%d"/></attvalues>`+"\n", membership[v])
		fmt.Fprintf(bw, `        <viz:color r="%d" g="%d" b="%d"/>`+"\n", r, gg, b)
		fmt.Fprintln(bw, `      </node>`)
	}
	fmt.Fprintln(bw, `    </nodes>`)
	fmt.Fprintln(bw, `    <edges>`)
	id := 0
	for u := 0; u < g.N(); u++ {
		nb, ws := g.OutNeighbors(u), g.OutWeights(u)
		for i, v := range nb {
			if !g.Directed() && int(v) < u {
				continue
			}
			fmt.Fprintf(bw, `      <edge id="%d" source="%d" target="%d" weight="%g"/>`+"\n",
				id, u, v, ws[i])
			id++
		}
	}
	fmt.Fprintln(bw, `    </edges>`)
	fmt.Fprintln(bw, `  </graph>`)
	fmt.Fprintln(bw, `</gexf>`)
	return bw.Flush()
}

// WriteDOT writes the graph in Graphviz DOT format, nodes colored and
// clustered by community.
func WriteDOT(w io.Writer, g *graph.Graph, membership []uint32) error {
	if membership != nil && len(membership) != g.N() {
		return fmt.Errorf("export: membership length %d, want %d", len(membership), g.N())
	}
	bw := bufio.NewWriter(w)
	name, sep := "graph", "--"
	if g.Directed() {
		name, sep = "digraph", "->"
	}
	fmt.Fprintf(bw, "%s communities {\n  node [style=filled];\n", name)
	for v := 0; v < g.N(); v++ {
		if membership != nil {
			r, gg, b := Color(membership[v])
			fmt.Fprintf(bw, "  %d [fillcolor=\"#%02x%02x%02x\", label=\"%d/m%d\"];\n",
				v, r, gg, b, v, membership[v])
		} else {
			fmt.Fprintf(bw, "  %d;\n", v)
		}
	}
	for u := 0; u < g.N(); u++ {
		nb, ws := g.OutNeighbors(u), g.OutWeights(u)
		for i, v := range nb {
			if !g.Directed() && int(v) < u {
				continue
			}
			fmt.Fprintf(bw, "  %d %s %d [weight=%g];\n", u, sep, v, ws[i])
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteGEXFFile writes GEXF to path.
func WriteGEXFFile(path string, g *graph.Graph, membership []uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteGEXF(f, g, membership); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteDOTFile writes DOT to path.
func WriteDOTFile(path string, g *graph.Graph, membership []uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDOT(f, g, membership); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
