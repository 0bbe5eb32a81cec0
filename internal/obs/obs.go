// Package obs is the hierarchical span tracer behind the repository's
// observability stack: every detection run can emit a run → level → sweep →
// kernel span tree (plus schedule-dependent per-worker spans), and the
// serving layer emits one root span per HTTP request. Completed spans land in
// a bounded ring buffer for live inspection (/debug/trace) or in an unbounded
// store for one-shot trace artifacts (-trace-out), and export either as
// Chrome trace-event JSON (chrome://tracing, Perfetto) or as a canonical
// span-tree JSON used to assert determinism.
//
// Two properties distinguish this tracer from an off-the-shelf one:
//
//   - Deterministic span IDs. IDs are derived structurally — a SplitMix64
//     hash (internal/rng) of the parent's ID and the child's birth index —
//     never from a global counter or an entropy source. Two runs with the
//     same seed therefore assign the same IDs to the same logical spans, no
//     matter how goroutines interleave.
//
//   - A volatility partition. Spans and attributes that depend on the
//     execution schedule (which worker ran a block, busy times, steal
//     counts) are marked volatile; CanonicalJSON excludes them along with
//     all timestamps, so the canonical tree of a seeded run is byte-identical
//     across worker counts and steal schedules. The Chrome export keeps
//     everything.
//
// All wall-clock reads flow through an injectable clock.Clock, so tests can
// drive time with clock.Fake and assert byte-exact artifacts.
package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asamap/asamap/internal/clock"
	"github.com/asamap/asamap/internal/rng"
)

// Config sizes a Tracer. The zero value is valid: real clock, unbounded
// store, seed 0.
type Config struct {
	// Clock supplies span timestamps; nil means the real clock.
	Clock clock.Clock
	// RingSize bounds the store of completed spans: once more than RingSize
	// spans have ended, the oldest are dropped. Zero or negative keeps every
	// span (one-shot trace artifacts).
	RingSize int
	// Seed namespaces the deterministic span IDs. Runs that should produce
	// identical canonical trees must use identical seeds.
	Seed uint64
}

// Tracer creates spans and stores the completed ones. Safe for concurrent
// use.
type Tracer struct {
	clk   clock.Clock
	epoch time.Time
	seed  uint64
	ring  int

	rootSeq atomic.Uint64

	mu            sync.Mutex
	done          []SpanData // completed spans in End order (ring-evicted from the front)
	start         int        // index of the oldest retained span in done (ring mode)
	droppedSpans  uint64     // spans ring-evicted before anyone read them
	droppedTraces uint64     // evicted spans that rooted a trace segment (local or remote)
	// totals folds every ended span by name before the ring can evict it.
	// Span names are compile-time constants (plus one per asabench sched
	// row), so the key set stays small and fixed.
	totals map[string]SpanTotal
}

// SpanTotal is the summed wall time and count of every ended span of one
// name.
type SpanTotal struct {
	Duration time.Duration
	Count    uint64
}

// New constructs a Tracer from cfg. A nil *Tracer is a valid no-op tracer:
// Begin returns a nil span and every span method no-ops, so call sites need
// no tracing-enabled branches.
func New(cfg Config) *Tracer {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	return &Tracer{
		clk:    clk,
		epoch:  clk.Now(),
		seed:   cfg.Seed,
		ring:   cfg.RingSize,
		totals: make(map[string]SpanTotal),
	}
}

// Attr is one span attribute. Values are pre-rendered strings so export is
// format-stable.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed, attributed node of the trace tree. A span is owned by
// the goroutine that created it except for concurrent keyed children
// (ChildKeyed), which own themselves; attribute writes and End are
// internally synchronized so misuse degrades to lost attributes, not races.
type Span struct {
	tracer   *Tracer
	id       uint64
	parent   uint64
	trace    uint64 // the trace this span belongs to (root span ID, inherited)
	seq      uint64 // birth index among siblings; orders canonical children
	name     string
	track    int
	volatile bool
	remote   bool // roots a remote segment (BeginRemote)
	start    time.Time

	children atomic.Uint64

	mu    sync.Mutex
	attrs []Attr
	vol   []Attr
	ended bool
}

// keyedSalt separates the ID space of keyed children from sequential ones so
// a keyed child can never alias a sibling's structural ID.
const keyedSalt = 0x9e3779b97f4a7c15

// keyedSeqBase orders keyed children after all sequential siblings in the
// canonical tree.
const keyedSeqBase = uint64(1) << 32

// remoteSalt separates remote segment roots from structural children of the
// same parent span, so a forwarded request's remote root can never alias a
// sender-side child.
const remoteSalt = 0xd1b54a32d192ed03

// Begin starts a new root span; the span's ID is also the ID of the new
// trace it roots. Returns nil (a no-op span) on a nil tracer.
func (t *Tracer) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	pos := t.rootSeq.Add(1)
	id := rng.Hash64(t.seed ^ rng.Hash64(pos))
	return &Span{
		tracer: t,
		id:     id,
		trace:  id,
		seq:    pos,
		name:   name,
		start:  t.clk.Now(),
	}
}

// BeginRemote starts the local root of a distributed trace segment: a span
// belonging to traceID whose parent lives on another node. Its ID is a pure
// function of the remote parent's ID, so duplicate deliveries of the same
// forwarded request produce the same remote root (merge dedups them), while
// distinct retry attempts — each propagating its own attempt span as parent —
// produce distinct roots. Returns nil on a nil tracer or zero coordinates.
func (t *Tracer) BeginRemote(name string, traceID, parent uint64) *Span {
	if t == nil {
		return nil
	}
	if traceID == 0 || parent == 0 {
		return t.Begin(name)
	}
	return &Span{
		tracer: t,
		id:     rng.Hash64(parent ^ remoteSalt),
		parent: parent,
		trace:  traceID,
		seq:    1,
		name:   name,
		remote: true,
		start:  t.clk.Now(),
	}
}

// ID returns the span's deterministic ID (0 on a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Trace returns the ID of the trace the span belongs to (0 on a nil span).
func (s *Span) Trace() uint64 {
	if s == nil {
		return 0
	}
	return s.trace
}

// Child starts a sub-span. The child's ID is a pure function of the parent's
// ID and the child's birth index, so serially created children get identical
// IDs across runs. Safe on a nil span (returns nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	pos := s.children.Add(1)
	return &Span{
		tracer: s.tracer,
		id:     rng.Hash64(s.id ^ rng.Hash64(pos)),
		parent: s.id,
		trace:  s.trace,
		seq:    pos,
		name:   name,
		start:  s.tracer.clk.Now(),
	}
}

// ChildKeyed starts a schedule-dependent sub-span identified by a caller
// key (e.g. a worker ID) instead of a birth index, so concurrent creation
// order cannot perturb IDs. Keyed children are volatile: they carry
// per-schedule data and are excluded from the canonical tree. Safe on a nil
// span (returns nil).
func (s *Span) ChildKeyed(name string, key uint64) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer:   s.tracer,
		id:       rng.Hash64(s.id ^ rng.Hash64(key) ^ keyedSalt),
		parent:   s.id,
		trace:    s.trace,
		seq:      keyedSeqBase + key,
		name:     name,
		volatile: true,
		start:    s.tracer.clk.Now(),
	}
}

// SetTrack assigns the span to a display track (Chrome trace "tid"); track 0
// is the main track. Used for per-worker spans so they render as parallel
// lanes instead of stacking.
func (s *Span) SetTrack(track int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.track = track
	s.mu.Unlock()
}

// SetAttr records a deterministic attribute: one whose value is a pure
// function of (graph, options fingerprint, seed) and therefore belongs in
// the canonical tree. Schedule- or time-dependent values must use the
// Volatile variants instead. No-op after End or on a nil span.
func (s *Span) SetAttr(key, value string) { s.setAttr(key, value, false) }

// SetUint records a deterministic integer attribute.
func (s *Span) SetUint(key string, v uint64) {
	s.setAttr(key, strconv.FormatUint(v, 10), false)
}

// SetFloat records a deterministic float attribute with the shortest
// round-trip decimal rendering (format-stable across platforms).
func (s *Span) SetFloat(key string, v float64) {
	s.setAttr(key, strconv.FormatFloat(v, 'g', -1, 64), false)
}

// SetBool records a deterministic boolean attribute ("true"/"false").
func (s *Span) SetBool(key string, v bool) {
	s.setAttr(key, strconv.FormatBool(v), false)
}

// SetVolatileAttr records a schedule- or time-dependent attribute, excluded
// from the canonical tree but kept in the Chrome export and /debug/trace.
func (s *Span) SetVolatileAttr(key, value string) { s.setAttr(key, value, true) }

// SetVolatileBool records a volatile boolean attribute.
func (s *Span) SetVolatileBool(key string, v bool) {
	s.setAttr(key, strconv.FormatBool(v), true)
}

// SetVolatileUint records a volatile integer attribute.
func (s *Span) SetVolatileUint(key string, v uint64) {
	s.setAttr(key, strconv.FormatUint(v, 10), true)
}

// SetVolatileFloat records a volatile float attribute.
func (s *Span) SetVolatileFloat(key string, v float64) {
	s.setAttr(key, strconv.FormatFloat(v, 'g', -1, 64), true)
}

func (s *Span) setAttr(key, value string, volatile bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if volatile {
			s.vol = append(s.vol, Attr{key, value})
		} else {
			s.attrs = append(s.attrs, Attr{key, value})
		}
	}
	s.mu.Unlock()
}

// End completes the span and commits it to the tracer's store. Second and
// later Ends, and Ends on nil spans, are no-ops. Spans never ended are never
// exported.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tracer.clk.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	data := SpanData{
		ID:            s.id,
		Parent:        s.parent,
		Trace:         s.trace,
		Seq:           s.seq,
		Name:          s.name,
		Track:         s.track,
		Volatile:      s.volatile,
		Remote:        s.remote,
		Start:         s.start,
		End:           end,
		Attrs:         s.attrs,
		VolatileAttrs: s.vol,
	}
	s.mu.Unlock()
	s.tracer.commit(data)
}

// SpanData is one completed span as retained by the tracer.
type SpanData struct {
	ID            uint64
	Parent        uint64 // 0 for local roots; the remote parent for remote segment roots
	Trace         uint64 // root span ID of the trace this span belongs to
	Seq           uint64
	Name          string
	Track         int
	Volatile      bool
	Remote        bool // roots a remote trace segment (parent lives on another node)
	Start, End    time.Time
	Attrs         []Attr
	VolatileAttrs []Attr
}

// rootsSegment reports whether evicting this span truncates a whole trace
// segment: a local trace root (ID == Trace) or a remote segment root.
func (d SpanData) rootsSegment() bool { return d.ID == d.Trace || d.Remote }

// Duration returns the span's wall time.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

func (t *Tracer) commit(data SpanData) {
	t.mu.Lock()
	tot := t.totals[data.Name]
	tot.Duration += data.Duration()
	tot.Count++
	t.totals[data.Name] = tot
	t.done = append(t.done, data)
	if t.ring > 0 && len(t.done)-t.start > t.ring {
		next := len(t.done) - t.ring
		// Truncation is never silent: every evicted span bumps the dropped
		// counter, and evicted segment roots additionally count as dropped
		// traces, so /metrics can surface how much trace history the ring
		// discarded.
		for i := t.start; i < next; i++ {
			t.droppedSpans++
			if t.done[i].rootsSegment() {
				t.droppedTraces++
			}
		}
		t.start = next
		// Compact once the dead prefix dominates, so memory stays O(ring)
		// without copying on every End.
		if t.start >= t.ring {
			t.done = append(t.done[:0], t.done[t.start:]...)
			t.start = 0
		}
	}
	t.mu.Unlock()
}

// Dropped reports how many completed spans the ring has evicted, and how
// many of those rooted a trace segment (a truncated-trace witness).
func (t *Tracer) Dropped() (spans, traces uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedSpans, t.droppedTraces
}

// Totals returns a copy of the per-name span totals. They count every span
// ever ended, so they stay exact at any RingSize.
func (t *Tracer) Totals() map[string]SpanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]SpanTotal, len(t.totals))
	for name, tot := range t.totals {
		out[name] = tot
	}
	return out
}

// Epoch returns the tracer's construction time; Chrome-export timestamps are
// microseconds since this instant.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// Len reports how many completed spans are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done) - t.start
}

// Snapshot returns up to n most recently completed spans in End order
// (oldest first). n <= 0 returns all retained spans. The returned slice is a
// copy; Attr slices are shared but never mutated after End.
func (t *Tracer) Snapshot(n int) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.done[t.start:]
	if n > 0 && len(live) > n {
		live = live[len(live)-n:]
	}
	out := make([]SpanData, len(live))
	copy(out, live)
	return out
}

// TraceSpans returns every retained completed span belonging to traceID, in
// End order. This is the per-trace read path behind GET /debug/trace/{id}:
// the ring is the store, the trace ID is the key.
func (t *Tracer) TraceSpans(traceID uint64) []SpanData {
	if t == nil || traceID == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanData
	for _, d := range t.done[t.start:] {
		if d.Trace == traceID {
			out = append(out, d)
		}
	}
	return out
}
