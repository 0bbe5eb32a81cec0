// Package analysis is a small, dependency-free static-analysis framework
// modeled on golang.org/x/tools/go/analysis, together with the asalint
// analyzer suite that proves this repository's determinism and cancellation
// contracts at build time instead of by example-based tests.
//
// The framework exists because the repository takes no module dependencies:
// it re-implements the minimal Analyzer/Pass/Diagnostic surface on the
// standard library (go/parser, go/types, go/importer) so the suite runs in
// any environment that has a Go toolchain. Analyzers:
//
//   - detorder:    map iteration feeding order-sensitive output or
//     floating-point accumulation in determinism-critical packages
//   - entropy:     time.Now/time.Since and global math/rand outside the
//     injectable internal/clock and internal/rng abstractions
//   - ctxflow:     context.Background()/TODO() in library code, and blocking
//     selects in exported context-taking kernel functions that cannot be
//     preempted by <-ctx.Done()
//   - goexit:      fire-and-forget goroutines (go statements not tied to a
//     sync.WaitGroup or errgroup in the same function)
//   - fingerprint: infomap.Options fields missing from both Fingerprint and
//     its explicit exclusion list, which would silently stale the asamapd
//     result-cache key
//   - hotalloc:    heap-allocation sites reachable (through the call graph in
//     internal/analysis/callgraph) from //asalint:hotroot hot-path roots —
//     the repo-wide steady-state-alloc-free contract
//   - lockorder:   mutex acquisition-order cycles across the service tier,
//     locks re-acquired while held, and locks held across blocking operations
//   - unreachable: declared functions that no entry point reaches through the
//     call graph; the roots are every main and init, every package
//     initializer, and the exported API declared by importable packages
//     (the root package asamap). It runs only over a graph of the whole
//     module and does not report in perfbench or in test-support packages
//     (names ending in "test")
//   - suppress:    //asalint suppression comments with no written
//     justification
//
// A diagnostic can be silenced by a justified suppression comment on the
// same line or the line directly above; when either line starts a multi-line
// statement, the suppression covers every line of that statement. Several
// tags may share one comment, comma-separated:
//
//	//asalint:<tag>[,<tag>...] <why this site is safe>
//
// where <tag> is the analyzer's suppression tag ("ordered" for detorder,
// otherwise the analyzer name). Suppressions that silence nothing are
// themselves reported per tag, so stale justifications cannot accrete.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/asamap/asamap/internal/analysis/callgraph"
)

// All returns the full asalint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detorder, Entropy, Ctxflow, Goexit, Fingerprint, Hotalloc, Lockorder, Unreachable, Suppress}
}

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Tag is the suppression-comment tag; empty means Name.
	Tag string
	// AppliesTo reports whether the analyzer should run over the package
	// with the given import path. The multichecker honors it; analysistest
	// bypasses it so fixtures exercise the check directly. Nil means all
	// packages.
	AppliesTo func(pkgPath string) bool
	// Whole marks an analyzer that reasons about the absence of callers:
	// it runs only when Pass.Graph is Whole, and its suppressions count as
	// unused only then.
	Whole bool
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

func (a *Analyzer) tag() string {
	if a.Tag != "" {
		return a.Tag
	}
	return a.Name
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Pkg is the type-checked package. It may be incomplete when the
	// package has type errors; analyzers must tolerate nil type info.
	Pkg *types.Package
	// Info holds expression types and object resolution for Files.
	Info *types.Info
	// PkgPath is the package import path ("github.com/..../internal/infomap"
	// for repository packages, the bare directory name for test fixtures).
	PkgPath string
	// PkgName is the package name from the package clause.
	PkgName string
	// Graph is the call graph over every package of this run. In the
	// multichecker it spans the loaded packages (Whole for a ./... run), so
	// interprocedural analyzers see cross-package edges; under analysistest
	// it covers just the fixture package, a whole program. Analyzers must
	// report only at positions inside this pass's package — the driver runs
	// them once per package.
	Graph *callgraph.Graph

	supp  *suppressions
	diags *[]Diagnostic
}

// Reportf records a finding at pos unless a matching suppression comment
// covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.supp != nil && p.supp.silence(p.Analyzer.tag(), position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown (type errors in the
// package or expressions outside the checked files).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// UnitOf adapts a loaded package to a call-graph unit. Units handed to one
// callgraph.Build must come from one loader, so object identities line up
// across packages.
func UnitOf(pkg *Package) *callgraph.Unit {
	return &callgraph.Unit{
		Path:  pkg.Path,
		Name:  pkg.Name,
		Fset:  pkg.Fset,
		Files: pkg.Files,
		Info:  pkg.Info,
		Pkg:   pkg.Types,
	}
}

// BuildGraph builds the shared call graph over pkgs (all loaded by one
// loader). The caller sets its Whole field when pkgs are the whole program.
func BuildGraph(pkgs []*Package) *callgraph.Graph {
	units := make([]*callgraph.Unit, 0, len(pkgs))
	for _, pkg := range pkgs {
		units = append(units, UnitOf(pkg))
	}
	return callgraph.Build(units)
}

// Run executes analyzers over pkg with the call graph of every package of
// the run, applying suppression comments and reporting unused suppressions,
// and returns the diagnostics sorted by position. When respectScope is true,
// analyzers whose AppliesTo rejects the package path are skipped (the
// multichecker); analysistest passes false so fixtures always exercise the
// analyzer under test.
func Run(pkg *Package, graph *callgraph.Graph, analyzers []*Analyzer, respectScope bool) ([]Diagnostic, error) {
	supp := collectSuppressions(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		if respectScope && a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		if a.Whole && !graph.Whole {
			continue
		}
		ran[a.tag()] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			PkgPath:  pkg.Path,
			PkgName:  pkg.Name,
			Graph:    graph,
			supp:     supp,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	// A suppression that silenced nothing is itself a defect: either the
	// code was fixed and the comment is stale, or the tag is misspelled and
	// the author believes a check is off when it is not.
	for _, s := range supp.all {
		if s.used {
			continue
		}
		if !ran[s.tag] {
			// The tagged analyzer did not run over this package; with the
			// full suite the only way here is an unknown tag.
			if !knownTag(analyzers, s.tag) {
				diags = append(diags, Diagnostic{
					Pos:      s.pos,
					Analyzer: "asalint",
					Message:  fmt.Sprintf("unknown suppression tag %q (known: %s)", s.tag, strings.Join(tagList(analyzers), ", ")),
				})
			}
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      s.pos,
			Analyzer: s.tag,
			Message:  fmt.Sprintf("unused //asalint:%s suppression: the line is clean", s.tag),
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		if diags[i].Pos.Column != diags[j].Pos.Column {
			return diags[i].Pos.Column < diags[j].Pos.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

func knownTag(analyzers []*Analyzer, tag string) bool {
	for _, a := range analyzers {
		if a.tag() == tag {
			return true
		}
	}
	return false
}

func tagList(analyzers []*Analyzer) []string {
	out := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		out = append(out, a.tag())
	}
	sort.Strings(out)
	return out
}

// PathIn returns an AppliesTo predicate accepting repository packages whose
// import path ends in one of the given suffixes. Fixture packages (paths
// without a slash, as loaded by analysistest) are accepted so the analyzer
// is testable outside the module tree.
func PathIn(suffixes ...string) func(string) bool {
	return func(pkgPath string) bool {
		if !strings.Contains(pkgPath, "/") {
			return true
		}
		for _, s := range suffixes {
			if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
				return true
			}
		}
		return false
	}
}

// PathNotIn returns an AppliesTo predicate rejecting packages whose import
// path ends in one of the given suffixes and accepting everything else.
func PathNotIn(suffixes ...string) func(string) bool {
	in := PathIn(suffixes...)
	return func(pkgPath string) bool {
		if !strings.Contains(pkgPath, "/") {
			return true
		}
		return !in(pkgPath)
	}
}
