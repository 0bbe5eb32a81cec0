package promtest

import (
	"strings"
	"testing"
)

// TestParse: a well-formed exposition parses into its families, and each
// rule the checker enforces rejects the exposition that breaks it.
func TestParse(t *testing.T) {
	good := `# a free comment
# TYPE x_total counter
x_total{k="a"} 1
x_total{k="b"} 2
# TYPE h_seconds histogram
h_seconds_bucket{le="+Inf"} 3
h_seconds_sum 0.5
h_seconds_count 3
# TYPE y gauge
y 1.5
`
	fams, err := Parse(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 || fams[0].Name != "x_total" || len(fams[0].Samples) != 2 ||
		fams[1].Type != "histogram" || len(fams[1].Samples) != 3 || fams[2].Samples[0] != (Sample{"y", 1.5}) {
		t.Fatalf("families = %+v", fams)
	}
	for name, bad := range map[string]string{
		"untyped":        "x_total 1\n",
		"typed after":    "x_total 1\n# TYPE x_total counter\n",
		"second type":    "# TYPE y gauge\ny 1\n# TYPE y gauge\n",
		"not contiguous": "# TYPE x_total counter\nx_total{k=\"a\"} 1\n# TYPE y gauge\ny 1\nx_total{k=\"b\"} 2\n",
		"series twice":   "# TYPE y gauge\ny 1\ny 2\n",
		"not a float":    "# TYPE y gauge\ny one\n",
		"no value":       "# TYPE y gauge\ny\n",
		"counter suffix": "# TYPE y gauge\ny_sum 1\n",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%s: accepted %q", name, strings.TrimSpace(bad))
		}
	}
}
