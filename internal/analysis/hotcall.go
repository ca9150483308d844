package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotCall is the static twin of the testing.AllocsPerRun guards: a
// function whose doc comment carries //odbgc:hotpath must not allocate,
// neither in its own body nor through any chain of statically
// resolvable calls, no matter how many callees deep or how many
// packages away the allocating construct hides. The runtime guards
// catch a regression only on the exact inputs a test replays; this
// analyzer catches the construct itself, on every branch, at vet time.
//
// Allocating constructs are map and slice composite literals, make,
// new, append, variable-capturing closures, calls into package fmt, and
// implicit or explicit conversions of concrete values to interface
// types. Those in a hot function's own body are reported where they
// stand. An allocation that is deliberate — a lazily built sparse-map
// fallback, an amortized append that the guards prove free in steady
// state, a panic-path format — carries //odbgc:alloc-ok <reason> on its
// line.
//
// Per package, every declared function is summarized once — does calling
// it allocate, and through which chain? — with suppressed sites
// excluded, and the summaries are exported as modular facts. A
// dependent package's pass consults those facts for calls it cannot see
// into, so the analysis crosses package boundaries at the cost of one
// JSON fact file per package, not a whole-program load.
//
// Calls the graph cannot resolve — interface methods, stored function
// values — contribute nothing: the analyzer is deliberately
// underapproximate there, and the AllocsPerRun guards remain the runtime
// backstop for dynamic dispatch. A report through a call names the full
// chain from the hot function to the allocation site; the fix is to
// make the chain allocation-free or annotate the first call
// //odbgc:alloc-ok <reason>.
var HotCall = &Analyzer{
	Name: "hotcall",
	Doc: "forbids heap allocation in //odbgc:hotpath functions and through " +
		"their resolved calls, reporting the full call chain",
	Run:   runHotCall,
	Facts: true,
}

const (
	allocOKMarker = "alloc-ok"
	// HotPathMarker annotates a function's doc comment to opt it into
	// HotCall checking. Exported so the annotation/guard sync test and
	// the analyzer agree on the spelling.
	HotPathMarker = "//odbgc:hotpath"
)

// IsHotPath reports whether the function declaration's doc comment
// carries the //odbgc:hotpath marker.
func IsHotPath(fn *ast.FuncDecl) bool {
	return hasMarker(fn.Doc, HotPathMarker)
}

// hasMarker reports whether a comment group (a function's or a field's
// doc, or a field's line comment) has a line carrying exactly the given
// //odbgc:* marker word (so //odbgc:barrier never matches
// //odbgc:barrier-ok).
func hasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

func runHotCall(pass *Pass) error {
	g := BuildCallGraph(pass)
	c := &hotcallComputer{pass: pass, g: g,
		state: map[*types.Func]int{},
		facts: map[*types.Func]*HotcallFact{},
	}
	// Summarize every declared function (deterministic order), exporting
	// the summaries for dependent packages.
	for _, fn := range g.Nodes {
		if pass.InTestFile(g.Decls[fn].Pos()) {
			continue
		}
		fact := c.summary(fn)
		if pass.Facts != nil {
			pass.Facts.Ensure(fn).Hotcall = fact
		}
	}
	// Report, in each hot function: every allocating construct in its
	// body, and each call site whose callee's summary allocates, with the
	// chain from that callee down to the site.
	for _, fn := range g.Nodes {
		fd := g.Decls[fn]
		if !IsHotPath(fd) || pass.InTestFile(fd.Pos()) {
			continue
		}
		forEachAllocSite(pass, fd, func(pos token.Pos, msg string) {
			pass.Reportf(pos, allocOKMarker, "%s", msg)
		})
		for _, e := range g.Edges[fn] {
			if !ModuleFunc(pass, e.Callee) {
				continue
			}
			sub := c.calleeFact(e.Callee)
			if sub == nil || !sub.Allocates {
				continue
			}
			chain := append([]string{FuncDisplay(e.Callee) + " (" + posLabel(pass.Fset, e.Pos) + ")"}, sub.Chain...)
			pass.Reportf(e.Pos, allocOKMarker,
				"hot path reaches an allocation through %s; make the chain allocation-free or annotate //odbgc:alloc-ok <reason>",
				strings.Join(chain, " -> "))
		}
	}
	return nil
}

// hotcallComputer memoizes per-function allocation summaries with a
// cycle guard: a recursive back edge contributes nothing (if any member
// of the cycle allocates directly, its own summary finds it).
type hotcallComputer struct {
	pass  *Pass
	g     *CallGraph
	state map[*types.Func]int // 0 unknown, 1 computing, 2 done
	facts map[*types.Func]*HotcallFact
}

// calleeFact resolves a callee's summary: locally computed for functions
// declared in this package, imported from the fact store otherwise.
func (c *hotcallComputer) calleeFact(fn *types.Func) *HotcallFact {
	if _, ok := c.g.Decls[fn]; ok {
		return c.summary(fn)
	}
	if f := c.pass.Facts.Func(fn); f != nil {
		return f.Hotcall
	}
	return nil
}

func (c *hotcallComputer) summary(fn *types.Func) *HotcallFact {
	switch c.state[fn] {
	case 1: // cycle back edge
		return &HotcallFact{}
	case 2:
		return c.facts[fn]
	}
	c.state[fn] = 1
	fact := &HotcallFact{}
	fd := c.g.Decls[fn]

	// Direct sites first: the innermost chain entry is the construct.
	forEachAllocSite(c.pass, fd, func(pos token.Pos, msg string) {
		if fact.Allocates || c.pass.Suppressed(pos, allocOKMarker) {
			return
		}
		fact.Allocates = true
		fact.Chain = []string{allocChainLabel(msg) + " (" + posLabel(c.pass.Fset, pos) + ")"}
	})
	if !fact.Allocates {
		for _, e := range c.g.Edges[fn] {
			if !ModuleFunc(c.pass, e.Callee) {
				continue
			}
			sub := c.calleeFact(e.Callee)
			if sub == nil || !sub.Allocates {
				continue
			}
			// The call itself may carry a deliberate-allocation waiver.
			if c.pass.Suppressed(e.Pos, allocOKMarker) {
				continue
			}
			fact.Allocates = true
			fact.Chain = append([]string{FuncDisplay(e.Callee) + " (" + posLabel(c.pass.Fset, e.Pos) + ")"}, sub.Chain...)
			break
		}
	}
	c.state[fn] = 2
	c.facts[fn] = fact
	return fact
}

// allocChainLabel compresses a direct-site message for use inside a call
// chain: "append may grow its backing array in hot path; preallocate..."
// becomes "append may grow its backing array".
func allocChainLabel(msg string) string {
	msg, _, _ = strings.Cut(msg, ";")
	return strings.TrimSuffix(msg, " in hot path")
}

// forEachAllocSite invokes report for every heap-allocating construct in
// fn's body, suppression not yet applied: a hot function reports each
// site directly (Reportf consults the //odbgc:alloc-ok comments), while
// summaries filter suppressed sites out before they propagate.
func forEachAllocSite(pass *Pass, fn *ast.FuncDecl, report func(pos token.Pos, msg string)) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal allocates in hot path")
			case *types.Slice:
				report(n.Pos(), "slice literal allocates in hot path")
			}
		case *ast.FuncLit:
			if capt := capturedVar(pass, fn, n); capt != "" {
				report(n.Pos(), fmt.Sprintf("closure capturing %s allocates in hot path", capt))
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, report)
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr, report func(pos token.Pos, msg string)) {
	switch {
	case isBuiltin(pass, call.Fun, "make"):
		report(call.Pos(), "make allocates in hot path")
		return
	case isBuiltin(pass, call.Fun, "new"):
		report(call.Pos(), "new allocates in hot path")
		return
	case isBuiltin(pass, call.Fun, "append"):
		report(call.Pos(),
			"append may grow its backing array in hot path; preallocate or annotate //odbgc:alloc-ok <reason>")
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), fmt.Sprintf("fmt.%s allocates in hot path", sel.Sel.Name))
				return
			}
		}
	}
	// Explicit conversion to an interface type: T(x) with T interface.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && !isInterfaceValue(pass, call.Args[0]) {
			report(call.Pos(),
				"conversion of concrete value to interface allocates in hot path")
		}
		return
	}
	// Implicit conversions: concrete arguments passed to interface
	// parameters box their value.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through unboxed
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && !isInterfaceValue(pass, arg) {
			report(arg.Pos(),
				fmt.Sprintf("passing concrete value as interface %s allocates in hot path", pt.String()))
		}
	}
}

// isInterfaceValue reports whether the expression already has interface
// type (or is the untyped nil), so passing it to an interface parameter
// does not box.
func isInterfaceValue(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return true // be conservative: do not report what we cannot type
	}
	if tv.IsNil() {
		return true
	}
	return types.IsInterface(tv.Type)
}

// capturedVar returns the name of a variable declared in fn but outside
// lit that lit's body references, or "" if the closure captures nothing.
func capturedVar(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) string {
	var captured string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared inside the enclosing function (parameters
		// included) but outside the literal itself. Package-level
		// variables are shared, not captured.
		if v.Pos() >= fn.Pos() && v.Pos() < fn.End() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}
