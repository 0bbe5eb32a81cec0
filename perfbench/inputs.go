package main

import (
	"bytes"

	"github.com/asamap/asamap/internal/graph"
)

// edgeList is g in the SNAP edge-list text cmd/infomap reads.
func edgeList(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
