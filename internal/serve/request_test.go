package serve

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDetectRejectsInvalidOptions: every out-of-range option value is the
// client's error, answered 400 before any run starts — also when the graph
// is unknown, since options are validated first.
func TestDetectRejectsInvalidOptions(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	info, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
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
		_, err := c.Detect(ctx, tc.graph, tc.opts)
		var apiErr *APIError
		if !asAPIError(err, &apiErr) || apiErr.Status != 400 {
			t.Errorf("%s: got %v, want 400", tc.name, err)
		}
	}
	if s.Runs() != 0 {
		t.Fatalf("%d runs for invalid requests, want 0", s.Runs())
	}
	if _, err := c.Detect(ctx, info.Hash, DetectOptions{Accum: "asa", CamKB: maxCamKB}); err != nil {
		t.Fatalf("cam_kb at the bound: %v", err)
	}
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	many, err := c.Detect(ctx, info.Hash, DetectOptions{Seed: 11, Workers: 10000})
	if err != nil {
		t.Fatal(err)
	}
	one, err := c.Detect(ctx, info.Hash, DetectOptions{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Cache != CacheHit || !bytes.Equal(many.Raw, one.Raw) {
		t.Fatalf("clamped run and one-worker run differ (outcome %q)", one.Cache)
	}
}
