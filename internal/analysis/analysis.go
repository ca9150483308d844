// Package analysis is the repository's static-analysis layer: a small
// go/analysis-compatible framework plus four project-specific analyzers
// that turn the codebase's determinism and zero-allocation conventions
// into compile-time errors.
//
// The paper's methodology depends on every policy observing a
// bit-identical trace-driven event stream (Section 4); the runtime audit
// layer (internal/check) verifies that property after the fact, while
// this package prevents the classes of code that break it from being
// written at all: silently non-exhaustive switches over the event-kind
// and policy enumerations (kindswitch), and the three below.
//
// Three analyzers see across function and package boundaries through a
// per-package call graph (callgraph.go) and serialized modular facts
// (facts.go): arenaindex follows which functions can move an
// //odbgc:arena field and which return views into one, and flags
// pointers held across such a move; hotcall forbids allocation in
// //odbgc:hotpath functions, in their own bodies and through their
// callees; and detflow forbids ambient clocks, global randomness,
// environment reads and order-dependent map iteration in the result
// packages and tracks nondeterminism taint from those sources to result
// and recording sinks.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic carry the same meaning — but is built on
// the standard library alone so the module stays dependency-free. The
// cmd/odbgc-vet binary drives the analyzers through the `go vet
// -vettool` protocol; internal/analysis/atest runs them over fixture
// packages in tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. The fields mirror
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression docs.
	Name string
	// Doc is the analyzer's one-paragraph description.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// Facts marks an interprocedural analyzer: its Run must execute even
	// on fact-only (VetxOnly) units, because dependents consume the
	// summaries it exports into Pass.Facts.
	Facts bool
}

// A Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the cross-package fact store: dependencies' summaries are
	// loaded before the pass runs, and fact-producing analyzers export
	// this package's summaries into it. Nil when the driver provides no
	// facts (single-package fixture runs); analyzers must tolerate that.
	Facts *FactStore

	// Report delivers one diagnostic.
	Report func(Diagnostic)

	// OnSuppressed, when non-nil, observes every suppression comment that
	// actually suppressed (or would suppress) a diagnostic: the driver
	// uses it for stale-suppression detection. The position is the
	// suppression comment's own line.
	OnSuppressed func(file string, line int, marker string)

	// suppressions maps file -> line -> suppression marker text for
	// every //odbgc:<marker> comment, built lazily.
	suppressions map[string]map[int]string
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos, unless the line (or the
// line above it) carries the analyzer's suppression marker.
func (p *Pass) Reportf(pos token.Pos, marker string, format string, args ...any) {
	if p.Suppressed(pos, marker) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppressionPrefix introduces every in-source suppression comment:
// //odbgc:<marker> <reason>.
const suppressionPrefix = "odbgc:"

// Suppressed reports whether the line holding pos, or the line
// immediately above it, carries an //odbgc:<marker> comment.
func (p *Pass) Suppressed(pos token.Pos, marker string) bool {
	if p.suppressions == nil {
		p.suppressions = Suppressions(p.Fset, p.Files)
	}
	posn := p.Fset.Position(pos)
	lines := p.suppressions[posn.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{posn.Line, posn.Line - 1} {
		if lines[line] == marker {
			if p.OnSuppressed != nil {
				p.OnSuppressed(posn.Filename, line, marker)
			}
			return true
		}
	}
	return false
}

// Suppressions maps file -> line -> marker for every //odbgc:<marker>
// comment in files.
func Suppressions(fset *token.FileSet, files []*ast.File) map[string]map[int]string {
	out := map[string]map[int]string{}
	for _, f := range files {
		lines := map[int]string{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, suppressionPrefix) {
					continue
				}
				word := strings.TrimPrefix(text, suppressionPrefix)
				if i := strings.IndexAny(word, " \t"); i >= 0 {
					word = word[:i]
				}
				lines[fset.Position(c.Pos()).Line] = word
			}
		}
		out[fset.Position(f.Pos()).Filename] = lines
	}
	return out
}

// InTestFile reports whether pos lies in a _test.go file. The analyzers
// enforce determinism and allocation discipline on the code that
// produces results; tests are exempt.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// resultPackages names the packages whose code can influence simulation
// results or rendered output. detflow's direct rule scopes itself to
// these; matching is by package name so analysistest fixtures (package
// sim, package core, ...) exercise the same predicate the real tree
// does.
var resultPackages = map[string]bool{
	"core":        true,
	"gc":          true,
	"heap":        true,
	"sim":         true,
	"workload":    true,
	"experiments": true,
	"pagebuf":     true,
	"remset":      true,
	"trace":       true,
	"stats":       true,
	"check":       true,
	"shard":       true,
}

// isResultPackage reports whether the pass's package is one whose
// behavior feeds into simulation results or rendered tables.
func isResultPackage(pass *Pass) bool {
	return resultPackages[pass.Pkg.Name()]
}

// All returns every analyzer in the suite, in reporting order. The
// fact-producing interprocedural analyzers (Facts == true) come last so
// that drivers running the suite in order have every intraprocedural
// diagnostic before the cross-package ones.
func All() []*Analyzer {
	return []*Analyzer{
		KindSwitch,
		ArenaIndex,
		HotCall,
		DetFlow,
	}
}
