package analysis_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"github.com/asamap/asamap/internal/analysis"
	"github.com/asamap/asamap/internal/analysis/analysistest"
)

func TestDetorder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Detorder, "detorder")
}

func TestEntropy(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Entropy, "entropy")
}

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Ctxflow, "ctxflow")
}

func TestGoexit(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Goexit, "goexit")
}

func TestFingerprint(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Fingerprint, "fingerprint")
}

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Hotalloc, "hotalloc")
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Lockorder, "lockorder")
}

func TestUnreachable(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Unreachable, "unreachable", "supporttest")
}

// TestUnreachableNeedsWholeProgram runs unreachable over internal/infomap
// alone. As a whole program it would report the exported functions that
// only other packages call, so on the partial graph of a subset run it must
// not run at all, nor count its suppressions as unused.
func TestUnreachableNeedsWholeProgram(t *testing.T) {
	dir := repoPath(t, "internal", "infomap")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	graph := analysis.BuildGraph([]*analysis.Package{pkg})
	diags, err := analysis.Run(pkg, graph, analysis.All(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("partial graph: %v", d)
	}
	graph.Whole = true
	diags, err = analysis.Run(pkg, graph, analysis.All(), true)
	if err != nil {
		t.Fatal(err)
	}
	unreachable := 0
	for _, d := range diags {
		if d.Analyzer == "unreachable" {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Fatal("internal/infomap as a whole program reports nothing, so the silence above shows nothing")
	}
}

// TestSuppressionContract proves //asalint:ordered silences exactly one
// line and is reported when it silences nothing (the fixture encodes both).
func TestSuppressionContract(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Detorder, "suppress")
}

// TestSuppressionMultiTagAndExtent proves the two suppression edge cases
// introduced with the interprocedural suite: a comma-shared comment reports
// its unused tags individually, and a suppression above a multi-line
// statement covers every line of that statement but not the next one.
func TestSuppressionMultiTagAndExtent(t *testing.T) {
	analysistest.RunAnalyzers(t, "testdata",
		[]*analysis.Analyzer{analysis.Detorder, analysis.Hotalloc}, "supmulti")
}

// TestSuppressJustification pins the suppress analyzer: every suppression
// comment must say why the silenced site is safe.
func TestSuppressJustification(t *testing.T) {
	analysistest.RunAnalyzers(t, "testdata",
		[]*analysis.Analyzer{analysis.Detorder, analysis.Suppress}, "supjustify")
}

// TestLoaderResolvesModuleImports loads a repository package whose files
// import other module-internal packages and checks the loader type-checked
// it without errors — the property the whole-repo lint run depends on.
func TestLoaderResolvesModuleImports(t *testing.T) {
	dir := repoPath(t, "internal", "metrics")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if want := "github.com/asamap/asamap/internal/metrics"; pkg.Path != want {
		t.Fatalf("pkg.Path = %q, want %q", pkg.Path, want)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("unexpected type error: %v", terr)
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Fatalf("missing type information")
	}
}

// TestScopePredicates pins the AppliesTo package routing.
func TestScopePredicates(t *testing.T) {
	in := analysis.PathIn("internal/infomap", "internal/serve")
	if !in("github.com/asamap/asamap/internal/infomap") {
		t.Error("PathIn rejected a listed package")
	}
	if in("github.com/asamap/asamap/internal/dist") {
		t.Error("PathIn accepted an unlisted package")
	}
	if !in("fixturepkg") {
		t.Error("PathIn rejected a fixture package")
	}
	out := analysis.PathNotIn("internal/clock")
	if out("github.com/asamap/asamap/internal/clock") {
		t.Error("PathNotIn accepted an excluded package")
	}
	if !out("github.com/asamap/asamap/internal/infomap") {
		t.Error("PathNotIn rejected an ordinary package")
	}
	if !out("fixturepkg") {
		t.Error("PathNotIn rejected a fixture package")
	}
}

// repoPath resolves a path relative to the repository root from this test
// file's location, so the test is independent of the working directory.
func repoPath(t *testing.T, elem ...string) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	return filepath.Join(append([]string{root}, elem...)...)
}
