package serve

import (
	"bytes"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestDetectRejectsInvalidOptions: every out-of-range option value is the
// client's error, answered 400 before any run starts — also when the graph
// is unknown, since options are validated first.
func TestDetectRejectsInvalidOptions(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	unknown := strings.Repeat("ab", 32)
	for _, tc := range []struct {
		name  string
		graph string
		opts  DetectOptions
	}{
		{"damping", info.Hash, DetectOptions{Damping: 1.5}},
		{"workers", info.Hash, DetectOptions{Workers: -1}},
		{"max_sweeps", info.Hash, DetectOptions{MaxSweeps: -3}},
		{"min_improvement", info.Hash, DetectOptions{MinImprovement: -1}},
		{"cam_kb", info.Hash, DetectOptions{Accum: "asa", CamKB: maxCamKB + 1}},
		{"unknown graph", unknown, DetectOptions{Damping: 1.5}},
	} {
		if r := c.send(http.MethodPost, "/v1/detect", DetectRequest{Graph: tc.graph, Options: tc.opts}); r.status != 400 {
			t.Errorf("%s: status %d, want 400", tc.name, r.status)
		}
	}
	if s.Runs() != 0 {
		t.Fatalf("%d runs for invalid requests, want 0", s.Runs())
	}
	c.detect(info.Hash, DetectOptions{Accum: "asa", CamKB: maxCamKB})
}

// TestDetectClampsWorkers: a request for far more workers than cores runs
// on GOMAXPROCS workers, and its bytes are those of a one-worker run.
func TestDetectClampsWorkers(t *testing.T) {
	opt, err := DetectOptions{Workers: 1 << 20}.toOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers %d, want GOMAXPROCS %d", opt.Workers, runtime.GOMAXPROCS(0))
	}

	_, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	many := c.detect(info.Hash, DetectOptions{Seed: 11, Workers: 10000})
	one := c.detect(info.Hash, DetectOptions{Seed: 11, Workers: 1})
	if one.Cache != CacheHit || !bytes.Equal(many.Raw, one.Raw) {
		t.Fatalf("clamped run and one-worker run differ (outcome %q)", one.Cache)
	}
}
