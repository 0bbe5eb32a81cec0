package asamap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/rng"
)

// The golden e2e tests exec the real CLI binaries through `go run` against a
// small committed LFR benchmark and byte-compare their outputs with files
// under testdata/golden. They pin the end-to-end determinism contract: same
// input, same seed => same bytes, across releases and worker counts.
//
// Regenerate (after an intentional algorithm change) with:
//
//	go run ./cmd/infomap -in testdata/golden/lfr_small.txt -seed 1 -workers 2 \
//	    -out testdata/golden/lfr_small.assign.golden \
//	    | sed '/^elapsed:/d; /^wrote /d' > testdata/golden/lfr_small.infomap.stdout.golden
//	go run ./cmd/quality -pred testdata/golden/lfr_small.assign.golden \
//	    -truth testdata/golden/lfr_small.truth -graph testdata/golden/lfr_small.txt \
//	    > testdata/golden/lfr_small.quality.golden

// runCLI executes `go run ./cmd/<name> args...` from the module root and
// returns its stdout.
func runCLI(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + name}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run ./cmd/%s %v: %v\nstderr:\n%s", name, args, err, stderr.String())
	}
	return stdout.Bytes()
}

// normalizeStdout drops the lines that legitimately vary between runs: the
// wall-clock "elapsed:" line and "wrote ... to <path>" lines that embed
// temp-file paths. Everything else must be byte-stable.
func normalizeStdout(out []byte) []byte {
	var kept []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "elapsed:") || strings.HasPrefix(line, "wrote ") {
			continue
		}
		kept = append(kept, line)
	}
	return []byte(strings.Join(kept, "\n"))
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestE2EInfomapGolden runs cmd/infomap on the committed LFR graph and
// byte-compares both the assignment file and the (normalized) stdout
// against goldens.
func TestE2EInfomapGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go run; skipped in -short mode")
	}
	assign := filepath.Join(t.TempDir(), "assign.txt")
	out := runCLI(t, "infomap",
		"-in", filepath.Join("testdata", "golden", "lfr_small.txt"),
		"-seed", "1", "-workers", "2", "-out", assign)

	got := normalizeStdout(out)
	want := readGolden(t, "lfr_small.infomap.stdout.golden")
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("infomap stdout drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	gotAssign, err := os.ReadFile(assign)
	if err != nil {
		t.Fatal(err)
	}
	wantAssign := readGolden(t, "lfr_small.assign.golden")
	if !bytes.Equal(gotAssign, wantAssign) {
		t.Error("assignment file is not byte-identical to the golden")
	}
}

// TestE2EInfomapGoldenWorkerInvariance reruns the same detection with
// different worker counts; the assignment bytes must not move — the
// scheduler's determinism guarantee observed at the CLI boundary.
func TestE2EInfomapGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go run; skipped in -short mode")
	}
	wantAssign := readGolden(t, "lfr_small.assign.golden")
	for _, workers := range []string{"1", "3", "4"} {
		assign := filepath.Join(t.TempDir(), "assign.txt")
		runCLI(t, "infomap",
			"-in", filepath.Join("testdata", "golden", "lfr_small.txt"),
			"-seed", "1", "-workers", workers, "-out", assign)
		got, err := os.ReadFile(assign)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantAssign) {
			t.Errorf("workers=%s: assignment differs from golden", workers)
		}
	}
}

// TestE2EWarmStartGolden runs the incremental path end to end: the committed
// LFR graph plus the committed delta file through `cmd/infomap -delta
// -warm-start`, byte-comparing the assignment and the normalized stdout
// (which pins the frontier size and frozen count) against goldens.
//
// Regenerate (after an intentional algorithm change) with:
//
//	go run ./cmd/infomap -in testdata/golden/lfr_small.txt \
//	    -delta testdata/golden/lfr_small.delta.txt -warm-start \
//	    -seed 1 -workers 2 -out testdata/golden/lfr_small.warm.assign.golden \
//	    | sed '/^elapsed:/d; /^wrote /d' > testdata/golden/lfr_small.warm.stdout.golden
func TestE2EWarmStartGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go run; skipped in -short mode")
	}
	assign := filepath.Join(t.TempDir(), "assign.txt")
	out := runCLI(t, "infomap",
		"-in", filepath.Join("testdata", "golden", "lfr_small.txt"),
		"-delta", filepath.Join("testdata", "golden", "lfr_small.delta.txt"),
		"-warm-start", "-seed", "1", "-workers", "2", "-out", assign)

	got := normalizeStdout(out)
	want := readGolden(t, "lfr_small.warm.stdout.golden")
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("warm-start stdout drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The stdout golden itself asserts the frontier restriction (a "warm:"
	// line with a non-zero frozen count); make the contract explicit here so
	// a regenerated golden that silently lost the restriction still fails.
	if !strings.Contains(string(got), "warm: frontier ") {
		t.Error("stdout is missing the warm frontier summary line")
	}
	if strings.Contains(string(got), " 0 frozen") {
		t.Error("warm start froze nothing: the frontier restriction is not active")
	}

	gotAssign, err := os.ReadFile(assign)
	if err != nil {
		t.Fatal(err)
	}
	wantAssign := readGolden(t, "lfr_small.warm.assign.golden")
	if !bytes.Equal(gotAssign, wantAssign) {
		t.Error("warm assignment file is not byte-identical to the golden")
	}
}

// TestE2EWarmStartGoldenWorkerInvariance reruns the incremental detection
// with different worker counts; the warm assignment bytes must not move.
func TestE2EWarmStartGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go run; skipped in -short mode")
	}
	wantAssign := readGolden(t, "lfr_small.warm.assign.golden")
	for _, workers := range []string{"1", "3", "4"} {
		assign := filepath.Join(t.TempDir(), "assign.txt")
		runCLI(t, "infomap",
			"-in", filepath.Join("testdata", "golden", "lfr_small.txt"),
			"-delta", filepath.Join("testdata", "golden", "lfr_small.delta.txt"),
			"-warm-start", "-seed", "1",
			"-workers", workers, "-out", assign)
		got, err := os.ReadFile(assign)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantAssign) {
			t.Errorf("workers=%s: warm assignment differs from golden", workers)
		}
	}
}

// TestE2ELintClean runs the repository's own analyzer suite (cmd/asalint)
// over every package, exactly as the CI lint job does. The determinism and
// cancellation contracts the goldens above observe at the process boundary
// are proved structurally here: any new unsorted map iteration on a result
// path, wall-clock read outside internal/clock, unjustified
// context.Background(), untracked goroutine, unhashed Options field, or
// function no entry point reaches turns this test red.
func TestE2ELintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go run; skipped in -short mode")
	}
	cmd := exec.Command("go", "run", "./cmd/asalint", "./...")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("asalint reported findings or failed: %v\n%s", err, out.String())
	}
	if s := strings.TrimSpace(out.String()); s != "" {
		t.Errorf("asalint produced unexpected output on a clean tree:\n%s", s)
	}
}

// TestE2ETrace runs cmd/infomap with -trace-out and validates the Chrome
// trace-event artifact: well-formed JSON, complete ("X") events with the
// expected kernel names, and an infomap → run → level → sweep →
// FindBestCommunity nesting reachable through the parent links in args.
// The normalized stdout must still match the golden — tracing cannot change
// the detection output.
func TestE2ETrace(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go run; skipped in -short mode")
	}
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out := runCLI(t, "infomap",
		"-in", filepath.Join("testdata", "golden", "lfr_small.txt"),
		"-seed", "1", "-workers", "2", "-trace-out", traceFile)

	got := normalizeStdout(out)
	want := readGolden(t, "lfr_small.infomap.stdout.golden")
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("tracing changed the detection stdout:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace-out is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("-trace-out holds no trace events")
	}

	type span struct{ name, parent string }
	byID := map[string]span{}
	count := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			t.Fatalf("event %q has phase %q, want complete (X)", ev.Name, ev.Phase)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("event %q has negative ts/dur: %v/%v", ev.Name, ev.TS, ev.Dur)
		}
		id, _ := ev.Args["id"].(string)
		parent, _ := ev.Args["parent"].(string)
		if id == "" {
			t.Fatalf("event %q carries no span id in args", ev.Name)
		}
		byID[id] = span{name: ev.Name, parent: parent}
		count[ev.Name]++
	}
	for _, name := range []string{"infomap", "run", "level", "sweep",
		"PageRank", "FindBestCommunity", "UpdateMembers"} {
		if count[name] == 0 {
			t.Errorf("trace has no %q span (have %v)", name, count)
		}
	}
	// Walk one FindBestCommunity span to its root through parent links.
	for id, sp := range byID {
		if sp.name != "FindBestCommunity" {
			continue
		}
		var chain []string
		for cur, ok := sp, true; ok; cur, ok = byID[cur.parent] {
			chain = append(chain, cur.name)
			if cur.parent == "" {
				break
			}
		}
		wantChain := []string{"FindBestCommunity", "sweep", "level", "run", "infomap"}
		if strings.Join(chain, "/") != strings.Join(wantChain, "/") {
			t.Fatalf("span %s ancestry = %v, want %v", id, chain, wantChain)
		}
		break
	}
}

// TestE2EQualityGolden scores the golden assignment against the planted
// truth and byte-compares cmd/quality's stdout.
func TestE2EQualityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go run; skipped in -short mode")
	}
	out := runCLI(t, "quality",
		"-pred", filepath.Join("testdata", "golden", "lfr_small.assign.golden"),
		"-truth", filepath.Join("testdata", "golden", "lfr_small.truth"),
		"-graph", filepath.Join("testdata", "golden", "lfr_small.txt"))
	want := readGolden(t, "lfr_small.quality.golden")
	if !bytes.Equal(out, want) {
		t.Errorf("quality stdout drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestE2EHierarchicalTreeUnrecorded runs `cmd/infomap -directed -teleport
// unrecorded -hierarchical -tree` on a generated R-MAT scale-10 edge list.
// The hierarchical L must not exceed the two-level L, and the .tree file's
// flows must be the base visit rates the run optimized on.
func TestE2EHierarchicalTreeUnrecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go run; skipped in -short mode")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "rmat10.txt")
	raw, err := gen.RMAT(10, 16, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.WriteEdgeListFile(in); err != nil {
		t.Fatal(err)
	}
	treePath := filepath.Join(dir, "rmat10.tree")
	out := runCLI(t, "infomap", "-in", in, "-directed", "-teleport", "unrecorded",
		"-hierarchical", "-tree", treePath)

	m := regexp.MustCompile(`hierarchy: hierarchical L=(\S+) bits \(two-level (\S+)\)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no hierarchy line in stdout:\n%s", out)
	}
	hier, err1 := strconv.ParseFloat(string(m[1]), 64)
	flat, err2 := strconv.ParseFloat(string(m[2]), 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable hierarchy line %q", m[0])
	}
	if hier > flat {
		t.Errorf("hierarchical L %v above two-level L %v", hier, flat)
	}

	g, _, err := graph.ReadEdgeListFile(in, true)
	if err != nil {
		t.Fatal(err)
	}
	opt := infomap.DefaultOptions()
	opt.Workers = 1
	opt.Teleport = infomap.TeleportUnrecorded
	flow, err := infomap.BaseFlow(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(treePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		// path flow "name" id
		f := strings.Fields(line)
		v, err := strconv.Atoi(f[len(f)-1])
		if err != nil || v < 0 || v >= g.N() {
			t.Fatalf("bad vertex id in tree line %q", line)
		}
		if want := fmt.Sprintf("%.9f", flow.NodeFlow[v]); f[1] != want {
			t.Fatalf("vertex %d: tree flow %s, base flow %s", v, f[1], want)
		}
		lines++
	}
	if lines != g.N() {
		t.Fatalf("tree has %d vertex lines, want %d", lines, g.N())
	}
}
