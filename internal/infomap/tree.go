package infomap

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteTree emits the hierarchy in the reference Infomap ".tree" format:
// one line per leaf vertex,
//
//	path flow "name" id
//
// where path is the colon-separated module path from the top level down to
// the vertex's rank inside its leaf module (1-based, best-flow first), flow
// is the vertex's base visit rate (r.NodeFlow), name its label, and id the
// vertex ID. labels may be nil, in which case the vertex ID doubles as the
// name.
func (r *HierResult) WriteTree(w io.Writer, labels []uint64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# path flow name node_id\n")
	fmt.Fprintf(bw, "# codelength %.6f bits (two-level %.6f)\n", r.Codelength, r.TwoLevelCodelength)
	nameOf := func(v int) string {
		if labels == nil {
			return fmt.Sprintf("%d", v)
		}
		return fmt.Sprintf("%d", labels[v])
	}

	var walk func(n *HierNode, path []int) error
	walk = func(n *HierNode, path []int) error {
		if n.IsLeaf() {
			// Order members by descending flow, the reference convention.
			members := append([]int(nil), n.Vertices...)
			sort.Slice(members, func(i, j int) bool {
				fi, fj := r.NodeFlow[members[i]], r.NodeFlow[members[j]]
				if fi != fj {
					return fi > fj
				}
				return members[i] < members[j]
			})
			for rank, v := range members {
				for _, p := range path {
					fmt.Fprintf(bw, "%d:", p)
				}
				fmt.Fprintf(bw, "%d %.9f \"%s\" %d\n", rank+1, r.NodeFlow[v], nameOf(v), v)
			}
			return nil
		}
		// Children ordered by descending flow, reference convention.
		order := make([]int, len(n.Children))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			fi, fj := n.Children[order[i]].Flow, n.Children[order[j]].Flow
			if fi != fj {
				return fi > fj
			}
			return order[i] < order[j]
		})
		for rank, idx := range order {
			if err := walk(n.Children[idx], append(path, rank+1)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(r.Root, nil); err != nil {
		return err
	}
	return bw.Flush()
}
