package obs

import (
	"encoding/json"
	"testing"
)

func TestBeginRemoteDeterministicRoots(t *testing.T) {
	tr := New(Config{Clock: fakeClock()})
	const trace, parent = uint64(0xaaaa), uint64(0xbbbb)

	a := tr.BeginRemote("request", trace, parent)
	b := tr.BeginRemote("request", trace, parent)
	if a.ID() != b.ID() {
		t.Errorf("duplicate delivery produced distinct remote roots: %x vs %x", a.ID(), b.ID())
	}
	if a.Trace() != trace {
		t.Errorf("remote root trace %x, want %x", a.Trace(), trace)
	}
	c := tr.BeginRemote("request", trace, parent+1)
	if c.ID() == a.ID() {
		t.Error("distinct parent attempts produced the same remote root")
	}
	// Children inherit the remote trace.
	ch := a.Child("work")
	if ch.Trace() != trace {
		t.Errorf("child trace %x, want %x", ch.Trace(), trace)
	}
	ch.End()
	a.End()
	b.End()
	c.End()

	spans := tr.TraceSpans(trace)
	if len(spans) != 4 {
		t.Fatalf("TraceSpans returned %d spans, want 4", len(spans))
	}
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Errorf("span %x carries trace %x", sp.ID, sp.Trace)
		}
	}
	// Remote roots are flagged so the merge knows they root a segment even
	// though their ID differs from the trace ID.
	if !spans[1].Remote {
		t.Error("remote root not flagged Remote")
	}

	// Remote roots must not consume local root sequence numbers: the next
	// local Begin has the same ID whether or not remote segments arrived.
	fresh := New(Config{Clock: fakeClock()})
	want := fresh.Begin("r").ID()
	if got := tr.Begin("r").ID(); got != want {
		t.Errorf("remote roots perturbed local root IDs: %x vs %x", got, want)
	}
}

func TestBeginRemoteZeroCoordinatesFallsBack(t *testing.T) {
	tr := New(Config{Clock: fakeClock()})
	sp := tr.BeginRemote("request", 0, 7)
	if sp.Trace() != sp.ID() || sp.Trace() == 0 {
		t.Errorf("zero trace coordinate should start a fresh local trace, got id=%x trace=%x", sp.ID(), sp.Trace())
	}
	var nilT *Tracer
	if nilT.BeginRemote("request", 1, 2) != nil {
		t.Error("nil tracer should return nil span")
	}
}

func TestTraceSpansFiltersAndNilSafety(t *testing.T) {
	tr := New(Config{Clock: fakeClock()})
	a := tr.Begin("a")
	b := tr.Begin("b")
	a.End()
	b.End()
	if got := tr.TraceSpans(a.Trace()); len(got) != 1 || got[0].Name != "a" {
		t.Errorf("TraceSpans(a) = %+v, want just span a", got)
	}
	if tr.TraceSpans(0) != nil {
		t.Error("TraceSpans(0) should be nil")
	}
	var nilT *Tracer
	if nilT.TraceSpans(1) != nil {
		t.Error("nil tracer TraceSpans should be nil")
	}
}

func TestDroppedCountsEvictedSpansAndTraces(t *testing.T) {
	tr := New(Config{Clock: fakeClock(), RingSize: 2})
	// Each request root also counts as a trace segment root.
	for i := 0; i < 5; i++ {
		sp := tr.Begin("request")
		ch := sp.Child("work")
		ch.End()
		sp.End()
	}
	// 10 spans ended, ring keeps 2 → 8 dropped; among the dropped, the roots.
	spans, traces := tr.Dropped()
	if spans != 8 {
		t.Errorf("dropped spans = %d, want 8", spans)
	}
	if traces != 4 {
		t.Errorf("dropped traces = %d, want 4", traces)
	}
	var nilT *Tracer
	if s, tt := nilT.Dropped(); s != 0 || tt != 0 {
		t.Error("nil tracer Dropped should be zero")
	}
}

func TestBuildCanonicalTreeDedupsRepeatedIDs(t *testing.T) {
	tr := New(Config{Clock: fakeClock()})
	root := tr.Begin("request")
	child := root.Child("work")
	child.End()
	root.End()
	spans := tr.Snapshot(0)

	once := BuildCanonicalTree(spans)
	// A faulted duplicate delivery replays the same deterministic spans; the
	// canonical tree must collapse them.
	twice := BuildCanonicalTree(append(append([]SpanData(nil), spans...), spans...))
	a, _ := json.MarshalIndent(once, "", "  ")
	b, _ := json.MarshalIndent(twice, "", "  ")
	if len(once) != len(twice) {
		t.Fatalf("duplicate spans changed root count: %d vs %d", len(once), len(twice))
	}
	if string(a) != string(b) {
		t.Errorf("duplicate spans changed canonical bytes:\n%s\nvs\n%s", a, b)
	}
}

func TestWriteMergedChromeTraceTracksPerNode(t *testing.T) {
	tr := New(Config{Clock: fakeClock()})
	sp := tr.Begin("request")
	sp.End()
	spans := tr.Snapshot(0)

	var buf stringWriter
	err := WriteMergedChromeTrace(&buf, []NodeTrack{
		{PID: 1, Label: "router", Epoch: tr.epoch, Spans: spans},
		{PID: 2, Label: "replica 0", Epoch: tr.epoch, Spans: spans},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"router"`, `"replica 0"`, `"pid":1`, `"pid":2`, `"trace"`} {
		if !contains(out, want) {
			t.Errorf("merged chrome trace missing %s:\n%s", want, out)
		}
	}
}

type stringWriter struct{ b []byte }

func (w *stringWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *stringWriter) String() string              { return string(w.b) }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
