package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// repoRoot resolves the repository root from this file's location, so tests
// and benchmarks are independent of the working directory.
func repoRoot(tb testing.TB) string {
	tb.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		tb.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// TestExpandPatternsSkipsFixtureTrees is the regression test for the ./...
// walk: analyzer fixtures contain deliberate contract violations and must
// never be loaded into a repo lint run.
func TestExpandPatternsSkipsFixtureTrees(t *testing.T) {
	root := repoRoot(t)
	dirs, err := expandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatalf("expandPatterns: %v", err)
	}
	if len(dirs) == 0 {
		t.Fatal("expandPatterns matched nothing")
	}
	sep := string(filepath.Separator)
	foundAnalysis := false
	for _, dir := range dirs {
		for _, banned := range []string{"testdata", "vendor", "node_modules"} {
			if strings.Contains(dir+sep, sep+banned+sep) {
				t.Errorf("fixture tree leaked into the package walk: %s", dir)
			}
		}
		if filepath.Base(dir) == "analysis" {
			foundAnalysis = true
		}
	}
	// The analyzer package itself (whose testdata/ subtree is full of
	// deliberate violations) must still be walked.
	if !foundAnalysis {
		t.Error("internal/analysis missing from the walk")
	}
}

// TestRunRejectsUnknownFormat pins the flag validation exit code.
func TestRunRejectsUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-format", "xml", "."}, &buf); code != 2 {
		t.Fatalf("run(-format xml) = %d, want 2", code)
	}
}

// TestJSONOutputDeterministic runs the linter twice over the same packages
// and requires byte-identical -format json documents: the canonical-output
// contract CI artifact diffing depends on.
func TestJSONOutputDeterministic(t *testing.T) {
	root := repoRoot(t)
	args := []string{"-format", "json",
		filepath.Join(root, "internal", "clock"),
		filepath.Join(root, "internal", "export"),
	}
	var first, second bytes.Buffer
	code1 := run(args, &first)
	code2 := run(args, &second)
	if code1 != code2 {
		t.Fatalf("exit codes differ across runs: %d vs %d", code1, code2)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("JSON output differs across runs:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
	}
	var doc struct {
		Schema   string `json:"schema"`
		Tool     string `json:"tool"`
		Findings []struct {
			File string `json:"file"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Schema != "asalint-findings/v1" || doc.Tool != "asalint" {
		t.Fatalf("unexpected envelope: schema=%q tool=%q", doc.Schema, doc.Tool)
	}
	for _, f := range doc.Findings {
		if filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("finding path %q is not module-root-relative with forward slashes", f.File)
		}
	}
}

// BenchmarkAsalintRepo measures one whole-repository lint run — load, graph
// build, every analyzer — and doubles as the repo-clean regression in
// bench-smoke (one iteration must exit 0).
func BenchmarkAsalintRepo(b *testing.B) {
	root := repoRoot(b)
	pattern := root + "/..."
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if code := run([]string{pattern}, &buf); code != 0 {
			b.Fatalf("asalint exit %d on the repository:\n%s", code, buf.String())
		}
	}
}

// TestWholeModule pins when a run may report unreachable functions: only
// when a pattern walks the whole module.
func TestWholeModule(t *testing.T) {
	root := repoRoot(t)
	for _, c := range []struct {
		patterns []string
		want     bool
	}{
		{[]string{root + "/..."}, true},
		{[]string{root + "/internal/infomap", root + "/..."}, true},
		{[]string{root + "/internal/..."}, false},
		{[]string{root}, false},
	} {
		if got := wholeModule(root, c.patterns); got != c.want {
			t.Errorf("wholeModule(%q) = %v, want %v", c.patterns, got, c.want)
		}
	}
	if wholeModule("", []string{"/..."}) {
		t.Error("a run outside any module covers it")
	}
}
