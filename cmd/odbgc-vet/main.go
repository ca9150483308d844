// odbgc-vet is the repository's custom vet tool: it drives the
// internal/analysis suite (kindswitch, and the interprocedural
// arenaindex, hotcall and detflow) through the `go vet -vettool`
// protocol.
//
// Build and run it locally with:
//
//	go build -o bin/odbgc-vet ./cmd/odbgc-vet
//	go vet -vettool="$(pwd)/bin/odbgc-vet" ./...
//
// The protocol (the contract go's cmd/go expects from a vet tool, the
// same one golang.org/x/tools/go/analysis/unitchecker implements) is:
//
//	odbgc-vet -V=full     print a version line for build caching
//	odbgc-vet -flags      describe the tool's flags as JSON
//	odbgc-vet unit.cfg    analyze one package described by a JSON file
//
// For each analyzed package the go command supplies a .cfg file naming
// the package's sources and the compiler-produced export data of its
// dependencies; the tool parses and type-checks the unit with the
// standard library's go/importer in lookup mode, runs every analyzer,
// and prints findings as file:line:col: analyzer: message on stderr,
// exiting nonzero if there were any. The module deliberately has no
// dependencies, so the driver speaks the protocol itself instead of
// importing unitchecker.
//
// A //odbgc:*-ok suppression comment in the unit's files that no
// analyzer's diagnostic probe matched is a finding too, reported as
// "stale": it suppresses nothing and should be deleted. The stale check
// depends only on the unit, so go vet's result cache stays correct.
//
// Cross-package facts ride the same protocol: each unit's function
// summaries are serialized as JSON into the VetxOutput file the go
// command names, and a dependent unit finds its dependencies' fact
// files in PackageVetx. Fact-only units (VetxOnly) of this module run
// just the fact-producing analyzers, diagnostics discarded — the
// dependent that imports them re-reports on its own unit.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"odbgc/internal/analysis"
)

// vetConfig mirrors the JSON compilation-unit description the go
// command writes for vet tools (unitchecker.Config). Fields the tool
// does not consume are omitted; unknown JSON keys are ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string // import path -> canonical package path
	PackageFile               map[string]string // canonical package path -> export data file
	PackageVetx               map[string]string // canonical package path -> dependency's fact file
	Standard                  map[string]bool
	VetxOnly                  bool // run only to produce facts for dependents
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// moduleImportPath reports whether path names a package of this module.
// Only module packages carry odbgc facts; everything else (the standard
// library) gets the empty fact table.
func moduleImportPath(path string) bool {
	return path == "odbgc" || strings.HasPrefix(path, "odbgc/")
}

func main() {
	findings, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odbgc-vet:", err)
		os.Exit(2)
	}
	if findings {
		os.Exit(1)
	}
}

// run dispatches the three vet-tool protocol modes. It reports findings
// (diagnostics or analyzer failures, already printed to stderr)
// separately from driver errors, so main can exit 1 for the former and
// 2 for the latter.
func run(args []string, stdout, stderr io.Writer) (findings bool, err error) {
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "--V=full":
			return false, printVersion(stdout)
		case args[0] == "-flags" || args[0] == "--flags":
			// No tool-specific flags; tell the go command so.
			fmt.Fprintln(stdout, "[]")
			return false, nil
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		return false, errors.New("usage: odbgc-vet unit.cfg (normally invoked via go vet -vettool=odbgc-vet)")
	}
	return runUnit(args[0], stderr)
}

// printVersion implements -V=full: cmd/go requires a line of the form
// "<name> version devel ... buildID=<content hash>" and uses the hash
// as the tool's cache key, so analyzer changes invalidate cached vet
// results.
func printVersion(stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("-V=full: locating own binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return fmt.Errorf("-V=full: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return fmt.Errorf("-V=full: hashing %s: %w", exe, err)
	}
	fmt.Fprintf(stdout, "odbgc-vet version devel analyzers buildID=%x\n", h.Sum(nil))
	return nil
}

// runUnit analyzes one compilation unit. Driver failures come back as
// errors naming the offending cfg file or package; diagnostics and
// analyzer failures go to stderr and are reported as findings.
func runUnit(cfgFile string, stderr io.Writer) (bool, error) {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		return false, fmt.Errorf("%s: %w", cfgFile, err)
	}

	// Fact-only units outside the module (standard-library dependencies
	// pulled in by a narrow target pattern) carry no odbgc facts: record
	// the empty fact table so the build cache has something to save, and
	// skip the typecheck entirely.
	if cfg.VetxOnly && !moduleImportPath(cfg.ImportPath) {
		if err := writeVetx(cfg, nil); err != nil {
			return false, fmt.Errorf("%s: %w", cfg.ImportPath, err)
		}
		return false, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return false, writeVetx(cfg, nil) // the compiler will report it
			}
			return false, fmt.Errorf("parsing %s: %w", cfg.ImportPath, err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{
		Importer:  makeImporter(cfg, fset),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return false, writeVetx(cfg, nil)
		}
		return false, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}

	facts, err := loadDepFacts(cfg)
	if err != nil {
		return false, fmt.Errorf("%s: %w", cfg.ImportPath, err)
	}
	// used holds every suppression comment a diagnostic probe matched.
	used := map[suppression]bool{}

	findings := false
	for _, a := range analysis.All() {
		if cfg.VetxOnly && !a.Facts {
			continue // fact-only unit: nothing to report, nothing to export
		}
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     facts,
		}
		pass.OnSuppressed = func(file string, line int, marker string) {
			used[suppression{file, line, marker}] = true
		}
		if cfg.VetxOnly {
			// Dependents re-run the suite on their own units; only the
			// exported facts matter here.
			pass.Report = func(analysis.Diagnostic) {}
		} else {
			pass.Report = func(d analysis.Diagnostic) {
				fmt.Fprintf(stderr, "%s: %s: %s\n", fset.Position(d.Pos), a.Name, d.Message)
				findings = true
			}
		}
		if err := a.Run(pass); err != nil {
			// An analyzer crash still fails the vet run, but the
			// remaining analyzers get their chance to report first.
			fmt.Fprintf(stderr, "odbgc-vet: analyzer %s failed on %s: %v\n", a.Name, cfg.ImportPath, err)
			findings = true
		}
	}
	if !cfg.VetxOnly {
		for _, s := range staleSuppressions(fset, files, used) {
			fmt.Fprintf(stderr, "%s:%d: stale: //odbgc:%s suppresses no finding; delete it\n", s.file, s.line, s.marker)
			findings = true
		}
	}
	if err := writeVetx(cfg, facts); err != nil {
		return false, fmt.Errorf("%s: %w", cfg.ImportPath, err)
	}
	return findings, nil
}

// A suppression is one //odbgc:<marker> comment's position.
type suppression struct {
	file   string
	line   int
	marker string
}

// staleSuppressions returns, in file and line order, every //odbgc:*-ok
// comment in files that is not in used. Run after every analyzer has
// run on the unit, so each suppression has had its chance to be probed.
func staleSuppressions(fset *token.FileSet, files []*ast.File, used map[suppression]bool) []suppression {
	var stale []suppression
	for file, lines := range analysis.Suppressions(fset, files) {
		for line, marker := range lines {
			s := suppression{file, line, marker}
			if strings.HasSuffix(marker, "-ok") && !used[s] {
				stale = append(stale, s)
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		if stale[i].file != stale[j].file {
			return stale[i].file < stale[j].file
		}
		return stale[i].line < stale[j].line
	})
	return stale
}

// loadDepFacts rebuilds the fact store from the dependencies' vetx
// files. Only module packages are decoded: the standard library's fact
// files hold the empty table, and leaving those paths out of the store
// keeps HasPackage meaning "analyzed by this tool with facts".
func loadDepFacts(cfg *vetConfig) (*analysis.FactStore, error) {
	store := analysis.NewFactStore()
	for path, file := range cfg.PackageVetx {
		if !moduleImportPath(path) {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("reading facts of dependency %s: %w", path, err)
		}
		if err := store.DecodePackage(path, data); err != nil {
			return nil, err
		}
	}
	return store, nil
}

func readConfig(name string) (*vetConfig, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %v", name, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no Go files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

// makeImporter resolves imports the way the go command expects a vet
// tool to: the import path as written is mapped through ImportMap to a
// canonical package path, whose compiler-produced export data file is
// named by PackageFile.
func makeImporter(cfg *vetConfig, fset *token.FileSet) types.Importer {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data file for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("cannot resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// writeVetx records the unit's fact output where the go command asked
// for it; absence would defeat caching of the vet action. A nil store
// (non-module units, typecheck bail-outs) writes the empty fact table.
func writeVetx(cfg *vetConfig, facts *analysis.FactStore) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	data := []byte("{}\n")
	if facts != nil {
		facts.AddPackage(cfg.ImportPath)
		var err error
		data, err = facts.EncodePackage(cfg.ImportPath)
		if err != nil {
			return fmt.Errorf("encoding facts: %w", err)
		}
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		return fmt.Errorf("writing facts file: %w", err)
	}
	return nil
}
