package propagate

import (
	"net/http"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	c := Context{TraceID: 0xdeadbeefcafe0123, Parent: 0x0123456789abcdef, Hop: 3}
	h := http.Header{}
	Inject(h, c)
	got, ok := Extract(h)
	if !ok {
		t.Fatalf("Extract failed on %q", h.Get(Header))
	}
	if got != c {
		t.Fatalf("round trip: got %+v, want %+v", got, c)
	}
	if want := "deadbeefcafe0123-0123456789abcdef-3"; h.Get(Header) != want {
		t.Errorf("wire form %q, want %q", h.Get(Header), want)
	}
}

func TestFormatParseID(t *testing.T) {
	for _, id := range []uint64{1, 0xffffffffffffffff, 0x00000000000000aa} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Errorf("FormatID(%d) = %q, want 16 digits", id, s)
		}
		back, err := ParseID(s)
		if err != nil || back != id {
			t.Errorf("ParseID(FormatID(%d)) = %d, %v", id, back, err)
		}
	}
	for _, bad := range []string{"", "12ab", "zzzzzzzzzzzzzzzz", "0123456789abcdef0"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted garbage", bad)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"justonefield",
		"0000000000000001-0000000000000002",     // two fields
		"0000000000000001-0000000000000002-1-9", // four fields
		"0000000000000000-0000000000000002-1",   // zero trace
		"0000000000000001-0000000000000000-1",   // zero parent
		"0000000000000001-0000000000000002-0",   // hop below range
		"0000000000000001-0000000000000002-17",  // hop above MaxHops
		"0000000000000001-0000000000000002-x",   // non-numeric hop
		"000000000000001-00000000000000002-1",   // wrong widths
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted garbage", bad)
		}
		h := http.Header{Header: []string{bad}}
		if _, ok := Extract(h); ok {
			t.Errorf("Extract accepted %q", bad)
		}
	}
}

func TestInjectSkipsInvalid(t *testing.T) {
	h := http.Header{}
	Inject(h, Context{})
	Inject(h, Context{TraceID: 1, Parent: 2, Hop: MaxHops + 1})
	if v := h.Get(Header); v != "" {
		t.Errorf("invalid context was injected: %q", v)
	}
}

func TestStrip(t *testing.T) {
	h := http.Header{}
	Inject(h, Context{TraceID: 1, Parent: 2, Hop: 1})
	if h.Get(Header) == "" {
		t.Fatal("inject failed")
	}
	Strip(h)
	if v := h.Get(Header); v != "" {
		t.Errorf("Strip left %q", v)
	}
}

func TestStringMatchesWireDoc(t *testing.T) {
	c := Context{TraceID: 0x01, Parent: 0x02, Hop: 16}
	if got := c.String(); !strings.HasSuffix(got, "-16") || len(got) != 16+1+16+3 {
		t.Errorf("String() = %q, unexpected shape", got)
	}
}
