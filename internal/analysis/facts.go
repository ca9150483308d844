package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"strings"
)

// Modular facts: the interprocedural analyzers (hotcall, detflow, and
// arenaindex's stale-pointer rule) summarize every function of a package
// once and publish the summaries as facts, in the spirit of go/analysis
// modular facts.
// When a later package calls into an already-analyzed one, the analyzer
// consults the callee's fact instead of its body — which it cannot see:
// the vet protocol hands each invocation exactly one package's source.
//
// Facts flow through the same channel the go command already provides
// for this purpose: each unit's facts are serialized (as JSON, sorted by
// construction) into the unit's VetxOutput file, and a dependent unit's
// config names its dependencies' fact files in PackageVetx. The atest
// fixture runner round-trips facts through the same encoding between the
// packages of a multi-package fixture, so tests prove serializability,
// not just in-memory propagation.

// FuncFacts is the fact record for one function: one optional summary
// per fact-producing analyzer. The JSON field names are the analyzer
// names, so a vetx file reads as analyzer -> summary at a glance.
type FuncFacts struct {
	Hotcall *HotcallFact `json:"hotcall,omitempty"`
	Detflow *DetflowFact `json:"detflow,omitempty"`
	Arena   *ArenaFact   `json:"arenaindex,omitempty"`
}

// ArenaFact summarizes a function for arenaindex's stale-pointer rule:
// the arenas (pkgpath.Owner.field) it can move, directly or through its
// callees, and the arena its result points into or views, if any.
type ArenaFact struct {
	Moves []string `json:"moves,omitempty"`
	View  string   `json:"view,omitempty"`
}

// HotcallFact summarizes a function for interprocedural allocation
// checking: whether calling it can heap-allocate (suppressed sites
// excluded — an //odbgc:alloc-ok allocation is a vetted exception, not a
// defect to propagate), and the call chain from the function to one
// offending site, innermost last.
type HotcallFact struct {
	Allocates bool     `json:"allocates,omitempty"`
	Chain     []string `json:"chain,omitempty"`
}

// DetflowFact summarizes a function for nondeterminism taint: whether
// its result or observable effect depends on a nondeterminism source
// (wall clock, global rand, environment, map iteration order), and the
// chain from the function to the source.
type DetflowFact struct {
	Tainted bool     `json:"tainted,omitempty"`
	Chain   []string `json:"chain,omitempty"`
}

// PackageFacts maps FuncKey -> facts for one package.
type PackageFacts map[string]*FuncFacts

// A FactStore holds the facts of every package visible to the current
// unit: its dependencies' (imported from their vetx files) plus the
// current package's own (exported by the analyzers as they run).
type FactStore struct {
	pkgs map[string]PackageFacts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: map[string]PackageFacts{}}
}

// HasPackage reports whether facts were recorded (even empty ones) for
// the package path — i.e. whether the package was analyzed by this tool,
// as opposed to a standard-library dependency with no facts.
func (s *FactStore) HasPackage(path string) bool {
	_, ok := s.pkgs[path]
	return ok
}

// AddPackage records an (initially empty) fact table for path, marking
// the package as analyzed.
func (s *FactStore) AddPackage(path string) {
	if _, ok := s.pkgs[path]; !ok {
		s.pkgs[path] = PackageFacts{}
	}
}

// Func returns the facts recorded for fn, or nil if none.
func (s *FactStore) Func(fn *types.Func) *FuncFacts {
	if s == nil || fn == nil || fn.Pkg() == nil {
		return nil
	}
	return s.pkgs[fn.Pkg().Path()][FuncKey(fn)]
}

// Ensure returns fn's fact record, creating it (and its package's table)
// on first use. Analyzers call it to export summaries.
func (s *FactStore) Ensure(fn *types.Func) *FuncFacts {
	if fn.Pkg() == nil {
		panic("analysis: exporting a fact for a function without a package")
	}
	path := fn.Pkg().Path()
	s.AddPackage(path)
	f := s.pkgs[path][FuncKey(fn)]
	if f == nil {
		f = &FuncFacts{}
		s.pkgs[path][FuncKey(fn)] = f
	}
	return f
}

// EncodePackage serializes one package's facts. json.Marshal emits map
// keys in sorted order, so the encoding is deterministic and safe to
// cache by content.
func (s *FactStore) EncodePackage(path string) ([]byte, error) {
	facts := s.pkgs[path]
	if facts == nil {
		facts = PackageFacts{}
	}
	return json.Marshal(facts)
}

// DecodePackage merges one package's serialized facts into the store.
// An empty or whitespace-only payload is a valid "no facts" record.
func (s *FactStore) DecodePackage(path string, data []byte) error {
	s.AddPackage(path)
	if len(strings.TrimSpace(string(data))) == 0 {
		return nil
	}
	var facts PackageFacts
	if err := json.Unmarshal(data, &facts); err != nil {
		return fmt.Errorf("decoding facts for %s: %w", path, err)
	}
	for k, v := range facts {
		s.pkgs[path][k] = v
	}
	return nil
}

// FuncKey names a function within its package: Recv.Name for methods
// (any pointer stripped from the receiver), Name for plain functions.
// The key is what fact files index by, so it must be derivable from a
// *types.Func alone on both the exporting and importing side.
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return fn.Name()
	}
	return named.Obj().Name() + "." + fn.Name()
}

// FuncDisplay renders a function for diagnostics: pkg.Recv.Name or
// pkg.Name, matching the qualified-name convention the hotpath/allocguard
// sync test uses.
func FuncDisplay(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + FuncKey(fn)
}
