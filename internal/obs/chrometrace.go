package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// chromeEvent is one Chrome trace-event ("X" = complete event). The format
// is the chrome://tracing / Perfetto JSON described in the Trace Event
// Format document: nesting is implied by ts/dur containment on a (pid, tid)
// track, and args carry the span attributes plus explicit id/parent links so
// machine consumers need not reconstruct nesting from time intervals.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`  // microseconds since the tracer epoch
	Dur   float64           `json:"dur"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object Perfetto and chrome://tracing
// both accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeSpanEvent renders one completed span as a Chrome complete event on
// the given pid, with timestamps relative to epoch.
func chromeSpanEvent(s SpanData, epoch time.Time, pid int) chromeEvent {
	cat := "span"
	if s.Volatile {
		cat = "volatile"
	}
	args := make(map[string]string, len(s.Attrs)+len(s.VolatileAttrs)+3)
	for _, a := range s.Attrs {
		args[a.Key] = a.Value
	}
	for _, a := range s.VolatileAttrs {
		args[a.Key] = a.Value
	}
	args["id"] = fmt.Sprintf("%016x", s.ID)
	if s.Parent != 0 {
		args["parent"] = fmt.Sprintf("%016x", s.Parent)
	}
	if s.Trace != 0 {
		args["trace"] = fmt.Sprintf("%016x", s.Trace)
	}
	return chromeEvent{
		Name:  s.Name,
		Cat:   cat,
		Phase: "X",
		TS:    float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
		Dur:   float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
		PID:   pid,
		TID:   s.Track + 1,
		Args:  args,
	}
}

// WriteChromeTrace renders every retained completed span as Chrome
// trace-event JSON. Volatile spans and attributes are included — this is the
// profiling artifact, not the determinism witness (use CanonicalJSON for
// that). Event order follows span End order; viewers sort by ts themselves.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte(`{"traceEvents":[],"displayTimeUnit":"ms"}` + "\n"))
		return err
	}
	spans := t.Snapshot(0)
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, s := range spans {
		out.TraceEvents = append(out.TraceEvents, chromeSpanEvent(s, t.epoch, 1))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// NodeTrack is one node's contribution to a merged multi-process Chrome
// export: a display label, the node's own epoch (its spans' timestamps are
// rendered relative to it — cross-node clocks are not aligned), and the
// spans themselves.
type NodeTrack struct {
	// PID is the Chrome process ID the node renders as (one track group per
	// node; must be unique across the export).
	PID int
	// Label names the process in the viewer (e.g. "router", "replica 1").
	Label string
	// Epoch is the zero point for this node's timestamps.
	Epoch time.Time
	// Spans are the node's completed spans.
	Spans []SpanData
}

// WriteMergedChromeTrace renders several nodes' span sets as one Chrome
// trace with one process per node, the cluster-wide view of a distributed
// trace: each node's spans keep their own epoch-relative timeline, and the
// id/parent/trace args let machine consumers stitch the cross-node edges
// that time containment cannot express.
func WriteMergedChromeTrace(w io.Writer, nodes []NodeTrack) error {
	var total int
	for _, n := range nodes {
		total += len(n.Spans) + 1
	}
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, total), DisplayTimeUnit: "ms"}
	for _, n := range nodes {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  "process_name",
			Cat:   "__metadata",
			Phase: "M",
			PID:   n.PID,
			Args:  map[string]string{"name": n.Label},
		})
		for _, s := range n.Spans {
			out.TraceEvents = append(out.TraceEvents, chromeSpanEvent(s, n.Epoch, n.PID))
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// TreeNode is one node of the canonical span tree: the deterministic
// skeleton of a trace with all timestamps, volatile spans, and volatile
// attributes removed.
type TreeNode struct {
	Name     string      `json:"name"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Children []*TreeNode `json:"children,omitempty"`
}

// BuildCanonicalTree assembles non-volatile spans into root-ordered trees.
// Children are ordered by their structural birth index, which is a pure
// function of program structure, so for a fixed seed the tree is identical
// across worker counts and steal schedules. Spans whose parent is absent from
// the set (ring-evicted, never ended, or living on a node that failed to
// report) surface as roots.
//
// Span IDs are deterministic, so the same logical span can appear more than
// once in a merged cluster set — a faulted duplicate delivery replays the
// identical request on the receiver, producing a second tree with the same
// IDs. Repeated IDs are collapsed to the first occurrence, which is what
// makes the canonical form stable under duplicate-injecting chaos schedules.
func BuildCanonicalTree(spans []SpanData) []*TreeNode {
	type entry struct {
		data SpanData
		node *TreeNode
	}
	byID := make(map[uint64]entry, len(spans))
	type edge struct {
		seq    uint64
		id     uint64
		parent uint64
	}
	edges := make([]edge, 0, len(spans))
	for _, s := range spans {
		if s.Volatile {
			continue
		}
		if _, dup := byID[s.ID]; dup {
			continue
		}
		byID[s.ID] = entry{s, &TreeNode{Name: s.Name, Attrs: s.Attrs}}
		edges = append(edges, edge{seq: s.Seq, id: s.ID, parent: s.Parent})
	}
	// Attach children in (parent, seq) order. Sorting by (parent, seq, id)
	// makes assembly independent of End order, which can vary when sibling
	// spans end concurrently.
	slices.SortFunc(edges, func(a, b edge) int {
		switch {
		case a.parent != b.parent:
			if a.parent < b.parent {
				return -1
			}
			return 1
		case a.seq != b.seq:
			if a.seq < b.seq {
				return -1
			}
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	var roots []*TreeNode
	var rootEdges []edge
	for _, e := range edges {
		if e.parent == 0 {
			rootEdges = append(rootEdges, e)
			continue
		}
		parent, ok := byID[e.parent]
		if !ok {
			rootEdges = append(rootEdges, e)
			continue
		}
		parent.node.Children = append(parent.node.Children, byID[e.id].node)
	}
	slices.SortFunc(rootEdges, func(a, b edge) int {
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	for _, e := range rootEdges {
		roots = append(roots, byID[e.id].node)
	}
	return roots
}

// CanonicalJSON renders the tracer's retained non-volatile spans as the
// canonical indented-JSON tree (see BuildCanonicalTree). For a fixed seed
// the bytes are identical across worker counts and steal schedules.
//
//asalint:unreachable test oracle: the determinism witness the obs, infomap and dist trace tests compare
func (t *Tracer) CanonicalJSON() ([]byte, error) {
	return json.MarshalIndent(BuildCanonicalTree(t.Snapshot(0)), "", "  ")
}
