// Package analysistest runs an analyzer over fixture packages and compares
// its diagnostics against `// want "regexp"` comments in the fixture source,
// mirroring golang.org/x/tools/go/analysis/analysistest on the standard
// library only.
//
// Fixture layout: <testdata>/src/<pkg>/*.go. Each line that should produce
// diagnostics carries a trailing comment of one or more quoted regular
// expressions:
//
//	for k := range m { // want `iteration over map`
//
// Every diagnostic on a line must be matched by a want on that line and
// vice versa; unmatched either way fails the test. Unused-suppression
// diagnostics produced by the framework participate like any other, which
// is how the suppression contract itself is fixture-tested.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/analysis"
)

// Run loads each fixture package under testdata/src and checks a's
// diagnostics against the fixture's want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	RunAnalyzers(t, testdata, []*analysis.Analyzer{a}, pkgs...)
}

// RunAnalyzers is Run with several analyzers over the same fixtures — the
// shape needed to fixture-test cross-analyzer suppression behavior, such as
// per-tag unused reporting on one shared comment.
func RunAnalyzers(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			loader, err := analysis.NewLoader(dir)
			if err != nil {
				t.Fatalf("loader: %v", err)
			}
			loaded, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatalf("load %s: %v", dir, err)
			}
			// Fixtures are addressed by their bare package name, as with
			// x/tools analysistest's GOPATH layout; this keeps analyzer
			// scope predicates (which treat slash-free paths as fixtures)
			// working even though testdata sits inside the module tree.
			loaded.Path = filepath.Base(dir)
			// A fixture package is a whole program.
			graph := analysis.BuildGraph([]*analysis.Package{loaded})
			graph.Whole = true
			diags, err := analysis.Run(loaded, graph, analyzers, false)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			checkWants(t, loaded, diags)
		})
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants extracts expectations from every comment containing "want".
func parseWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("want "):], -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

func matchWant(wants []*want, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
