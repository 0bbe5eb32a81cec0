// Command asalint runs the repository's static-contract analyzer suite
// (internal/analysis) over Go packages and fails the build on any finding.
//
// Standalone use (CI's lint job, `make lint`):
//
//	go run ./cmd/asalint ./...
//	go run ./cmd/asalint ./internal/infomap ./internal/serve
//	go run ./cmd/asalint -format json ./... > findings.json
//
// All packages load through one loader into one shared call graph, so the
// interprocedural analyzers (hotalloc, lockorder, ctxflow, goexit) see
// cross-package edges. Diagnostics print as file:line:col: analyzer: message
// (or as a JSON document with -format json), and the exit code is 1 when
// any were produced — so the command composes with CI the same way go vet
// does. `-v` additionally surfaces type-check problems the loader tolerated.
//
// The JSON document is canonical: findings sorted by position,
// module-root-relative slash paths, no timestamps — byte-identical across
// runs over identical sources, matching the repository's canonical-output
// discipline, so CI can diff uploaded artifacts between commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/asamap/asamap/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("asalint", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also print tolerated type-check errors")
	list := fs.Bool("list", false, "print the analyzer names and docs, then exit")
	format := fs.String("format", "text", "output format: text or json")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: asalint [-v] [-format text|json] packages...\n\npatterns: ./... dir/... or package directories\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json":
	default:
		fmt.Fprintf(os.Stderr, "asalint: unknown -format %q (want text or json)\n", *format)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asalint: %v\n", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "asalint: no packages matched")
		return 2
	}
	loader, err := analysis.NewLoader(dirs[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "asalint: %v\n", err)
		return 2
	}
	exit := 0
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asalint: %s: %v\n", dir, err)
			exit = 2
			continue
		}
		if *verbose {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "asalint: typecheck: %v\n", terr)
			}
		}
		pkgs = append(pkgs, pkg)
	}
	// One shared graph across every loaded package: interprocedural analyzers
	// need cross-package edges (a hot root in internal/infomap reaching an
	// accumulator in internal/hashtab; lock order spanning serve and cluster).
	graph := analysis.BuildGraph(pkgs, nil)
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.RunWithGraph(pkg, graph, analysis.All(), true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asalint: %v\n", err)
			exit = 2
			continue
		}
		all = append(all, diags...)
	}
	if len(all) > 0 && exit == 0 {
		exit = 1
	}
	// Per-package runs return sorted diagnostics; sort globally so output
	// order does not depend on package load order.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	root := loader.ModuleRoot
	switch *format {
	case "json":
		if err := writeJSON(stdout, root, all); err != nil {
			fmt.Fprintf(os.Stderr, "asalint: %v\n", err)
			return 2
		}
	default:
		for _, d := range all {
			fmt.Fprintln(stdout, rel(d.String()))
		}
	}
	return exit
}

// relPath renders a diagnostic path module-root-relative with forward
// slashes — the canonical form of the JSON document.
func relPath(root, path string) string {
	if root != "" {
		if r, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
	}
	return filepath.ToSlash(path)
}

// jsonFinding is one diagnostic in the -format json document.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonDocument is the -format json envelope. No timestamps, no absolute
// paths: two runs over identical sources must produce identical bytes.
type jsonDocument struct {
	Schema   string        `json:"schema"`
	Tool     string        `json:"tool"`
	Findings []jsonFinding `json:"findings"`
}

func writeJSON(w io.Writer, root string, diags []analysis.Diagnostic) error {
	doc := jsonDocument{
		Schema:   "asalint-findings/v1",
		Tool:     "asalint",
		Findings: []jsonFinding{},
	}
	for _, d := range diags {
		doc.Findings = append(doc.Findings, jsonFinding{
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// rel shortens absolute paths in a diagnostic line to be cwd-relative, which
// is what editors and CI annotations expect.
func rel(line string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return line
	}
	if r, ok := strings.CutPrefix(line, cwd+string(filepath.Separator)); ok {
		return r
	}
	return line
}

// expandPatterns resolves go-style package patterns to package directories:
// "./..." walks recursively, anything else is taken as a directory.
//
// The walk deterministically skips testdata/ and fixture trees (vendor,
// hidden, and underscore-prefixed directories too): analyzer fixtures
// contain deliberate contract violations and must never be loaded into a
// repo lint run. filepath.WalkDir visits lexically, so the returned order is
// stable across runs and platforms.
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if root == "." || root == "" {
			root = "."
		}
		if !recursive {
			if hasGoFiles(pat) {
				add(filepath.Clean(pat))
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(filepath.Clean(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// skipDir reports whether a directory subtree is excluded from ./...
// expansion. testdata holds analyzer fixtures and golden files; vendor,
// hidden, and underscore-prefixed trees follow the go command's own rules.
func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
		name == "testdata" || name == "vendor" || name == "node_modules"
}

// hasGoFiles reports whether dir directly contains a non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
