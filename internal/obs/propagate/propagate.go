// Package propagate defines the cluster's trace-context wire format: the
// X-Asamap-Trace request header that carries a trace across process
// boundaries, so a detect request forwarded router→owner (or a replication,
// cache-adoption, or lineage-fetch call) roots its remote span tree under the
// exact client-side span that issued it.
//
// The format is deliberately minimal — three fields, fixed width, no
// vendor-prefixed baggage:
//
//	X-Asamap-Trace: <trace-id:16 hex>-<parent-span-id:16 hex>-<hop:decimal>
//
// trace-id is the 64-bit ID of the root span that started the trace (the
// first request's root span ID — internal/obs assigns it deterministically,
// so a replayed scenario reproduces the same trace IDs). parent-span-id is
// the span on the sending node under which the receiving node must root its
// own request span: the per-attempt span of the peer gauntlet, so each retry
// attempt stitches to its own parent and duplicate deliveries of one attempt
// collapse to one deterministic remote ID. hop counts forwarding depth and
// caps at MaxHops — a routing loop degrades to an untraced request, never to
// an unbounded header chain.
//
// The header is cluster-internal addressing, not protocol. cluster.PeerClient
// is the only sender: it injects a fresh context on each attempt under that
// attempt's peer.attempt span. The request middleware consumes (deletes) it
// at ingress, so handlers never re-forward a stale context.
package propagate

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

const (
	// Header carries the trace context on cluster-internal requests.
	Header = "X-Asamap-Trace"
	// ResponseHeader reports the trace ID a request was recorded under, so
	// clients can fetch the merged trace via GET /debug/trace/{trace-id}.
	ResponseHeader = "X-Asamap-Trace-Id"
	// MaxHops bounds forwarding depth: a context that would exceed it is not
	// propagated further, so a misrouted request costs an untraced hop, not
	// an unbounded chain.
	MaxHops = 16
)

// Context is one parsed trace context.
type Context struct {
	// TraceID identifies the whole distributed trace (the originating
	// request's root span ID).
	TraceID uint64
	// Parent is the sending-side span the receiver roots under.
	Parent uint64
	// Hop is the forwarding depth of the receiving node (the originating
	// request is hop 0).
	Hop int
}

// Valid reports whether the context can be propagated: non-zero IDs and a
// hop within bounds.
func (c Context) Valid() bool {
	return c.TraceID != 0 && c.Parent != 0 && c.Hop >= 1 && c.Hop <= MaxHops
}

// String renders the wire form.
func (c Context) String() string {
	return FormatID(c.TraceID) + "-" + FormatID(c.Parent) + "-" + strconv.Itoa(c.Hop)
}

// FormatID renders a span or trace ID in the fixed-width form used
// everywhere IDs cross the wire (headers, /debug/trace payloads).
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID parses a FormatID-rendered ID.
func ParseID(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("propagate: id %q is not 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("propagate: bad id %q: %w", s, err)
	}
	return v, nil
}

// Parse decodes the wire form. It rejects malformed fields, zero IDs, and
// out-of-range hops — a garbage header must degrade to "untraced", never to
// a trace keyed on ID 0.
func Parse(s string) (Context, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return Context{}, fmt.Errorf("propagate: header %q: want trace-parent-hop", s)
	}
	trace, err := ParseID(parts[0])
	if err != nil {
		return Context{}, err
	}
	parent, err := ParseID(parts[1])
	if err != nil {
		return Context{}, err
	}
	hop, err := strconv.Atoi(parts[2])
	if err != nil {
		return Context{}, fmt.Errorf("propagate: bad hop %q: %w", parts[2], err)
	}
	c := Context{TraceID: trace, Parent: parent, Hop: hop}
	if !c.Valid() {
		return Context{}, fmt.Errorf("propagate: invalid context %q", s)
	}
	return c, nil
}

// Inject writes the context onto h, replacing any present value. Invalid
// contexts (zero IDs, hop out of range) are not written — the request simply
// travels untraced.
func Inject(h http.Header, c Context) {
	if !c.Valid() {
		return
	}
	h.Set(Header, c.String())
}

// Extract reads and validates the context from h. ok is false when the
// header is absent or malformed.
func Extract(h http.Header) (Context, bool) {
	v := h.Get(Header)
	if v == "" {
		return Context{}, false
	}
	c, err := Parse(v)
	if err != nil {
		return Context{}, false
	}
	return c, true
}

// Strip removes the trace context from h. Egress paths that leave the
// cluster call it so the internal addressing never reaches a third party.
func Strip(h http.Header) { h.Del(Header) }
