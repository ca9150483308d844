package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow keeps nondeterminism out of results. Sources are the
// constructs that differ between two runs on identical input: wall-clock
// reads, the global math/rand generator, environment reads, and values
// produced by iterating a map (a return executed inside a map range).
// All randomness must instead flow through a seeded *rand.Rand threaded
// from the configuration (workload.Config.Seed, sim.Config), so that the
// same seed produces the same trace and the same results on any
// machine; constructing a seeded source (rand.New, rand.NewSource,
// rand.NewZipf) is allowed.
//
// The analyzer enforces two rules. Inside the result packages, every
// direct use of a clock, global-rand, or environment source is a
// finding, wherever its value goes, and so is every range over a map
// whose body has order-dependent effects (Go randomizes map iteration
// order). Two map-range shapes are order-independent and allowed: a
// collect loop whose body only appends to a slice that the enclosing
// function then sorts, and a loop whose body only performs commutative
// updates (x++, x--, x += e, and friends). Across functions and
// packages, a value that flows from any source to a sink is a finding
// that names the full chain back to the source. Sinks are the places
// results become results: fields of the module's Result /
// ActivationRecord / SampleRecord types and anything handed to
// internal/record. Such a flow — possibly through calls into other
// packages, tracked by per-function taint facts — would make the
// paper's paired-run tables differ between executions.
//
// The taint tracking is deliberately simple: function summaries are
// all-or-nothing (a function that touches a source is tainted), local
// variables pick up taint through assignments, and unresolvable calls
// (interface methods, function values) are untainted. Deliberate
// exceptions — wall-clock perf metrics that never feed simulation
// results, a map range whose order does not matter — carry
// //odbgc:nondet-ok <reason> at the source, which both silences the
// direct rule and stops the taint from propagating.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc: "forbids clock, global rand, and environment reads and order-dependent " +
		"map iteration in result packages, and tracks nondeterminism taint " +
		"(those and map order) through calls into result and recording sinks",
	Run:   runDetFlow,
	Facts: true,
}

// nondetBanned maps import path -> top-level functions whose results
// differ between runs.
var nondetBanned = map[string]map[string]bool{
	"time": {
		"Now": true, "Since": true, "Until": true, "Sleep": true,
		"Tick": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true,
	},
	"os": {
		"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	},
}

// nondetRandAllowed are the math/rand package-level names that do not
// touch the global generator: constructors for explicitly seeded
// sources.
var nondetRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// detflowSinkTypes are the named struct types whose fields are results:
// writes of tainted values into them are findings.
var detflowSinkTypes = map[string]bool{
	"Result":           true,
	"ActivationRecord": true,
	"SampleRecord":     true,
}

func runDetFlow(pass *Pass) error {
	g := BuildCallGraph(pass)
	c := &detflowComputer{pass: pass, g: g,
		state: map[*types.Func]int{},
		facts: map[*types.Func]*DetflowFact{},
	}
	for _, fn := range g.Nodes {
		if pass.InTestFile(g.Decls[fn].Pos()) {
			continue
		}
		fact := c.summary(fn)
		if pass.Facts != nil {
			pass.Facts.Ensure(fn).Detflow = fact
		}
	}
	// The direct rule covers only the packages whose values become
	// results or rendered output; sink checking adds the recording
	// package.
	if isResultPackage(pass) {
		reportDirectSources(pass)
	} else if pass.Pkg.Name() != "record" {
		return nil
	}
	for _, fn := range g.Nodes {
		fd := g.Decls[fn]
		if pass.InTestFile(fd.Pos()) {
			continue
		}
		c.reportSinks(fd)
	}
	return nil
}

// reportDirectSources reports every use of a clock, global-rand, or
// environment source in the package's non-test files, package-level
// declarations included, and every map range with order-dependent
// effects.
func reportDirectSources(pass *Pass) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if desc := nondetSource(pass, n); desc != "" {
				pass.Reportf(n.Pos(), detflowMarker,
					"use of %s is nondeterministic between runs; derive the value from the configuration (a seeded *rand.Rand for randomness) or annotate //odbgc:nondet-ok <reason>", desc)
				return false
			}
			if rng, ok := n.(*ast.RangeStmt); ok && rangesOverMap(pass, rng) {
				checkMapRange(pass, file, rng)
			}
			return true
		})
	}
}

// checkMapRange reports a map range unless its body is a collect loop
// sorted afterwards or pure commutative accumulation.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	var collectTargets []ast.Expr
	for _, stmt := range rng.Body.List {
		target, kind := classifyMapRangeStmt(pass, stmt)
		if kind == stmtOther {
			pass.Reportf(rng.Pos(), detflowMarker,
				"map iteration with order-dependent effects; iterate sorted keys or annotate //odbgc:nondet-ok <reason>")
			return
		}
		if kind == stmtAppend {
			collectTargets = append(collectTargets, target)
		}
	}
	// A collect loop is only deterministic if the collected slice is
	// sorted before anyone iterates it.
	fn := enclosingFuncDecl(file, rng.Pos())
	for _, target := range collectTargets {
		if fn == nil || !sortedAfter(pass, fn, target, rng.End()) {
			pass.Reportf(rng.Pos(), detflowMarker,
				"map keys collected into %s but never sorted in this function; sort before iterating or annotate //odbgc:nondet-ok <reason>",
				types.ExprString(target))
			return
		}
	}
}

// enclosingFuncDecl returns the FuncDecl whose body contains pos, if any.
func enclosingFuncDecl(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Body.Pos() <= pos && pos <= fd.Body.End() {
			return fd
		}
	}
	return nil
}

// stmtKind classifies one statement of a map-range body.
type stmtKind int

const (
	stmtOther stmtKind = iota
	stmtAppend
	stmtAccumulate
)

// classifyMapRangeStmt recognizes the two order-independent statement
// shapes: `s = append(s, ...)` (returning the collect target) and
// commutative accumulation (x++, x--, x op= e for commutative op).
func classifyMapRangeStmt(pass *Pass, stmt ast.Stmt) (ast.Expr, stmtKind) {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return nil, stmtAccumulate
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			return nil, stmtAccumulate
		case token.ASSIGN, token.DEFINE:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return nil, stmtOther
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
				return nil, stmtOther
			}
			if types.ExprString(call.Args[0]) != types.ExprString(s.Lhs[0]) {
				return nil, stmtOther
			}
			return s.Lhs[0], stmtAppend
		}
	}
	return nil, stmtOther
}

// sortedAfter reports whether fn contains, after pos, a call that sorts
// target: sort.<Fn>(target, ...), slices.Sort*(target, ...), or a
// method call target.Sort(...).
func sortedAfter(pass *Pass, fn *ast.FuncDecl, target ast.Expr, pos token.Pos) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && isPackageName(pass, pkg, "sort", "slices") {
			for _, arg := range call.Args {
				a := arg
				if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
					a = u.X
				}
				if types.ExprString(a) == want {
					found = true
					return false
				}
			}
			return true
		}
		if sel.Sel.Name == "Sort" && types.ExprString(sel.X) == want {
			found = true
			return false
		}
		return true
	})
	return found
}

// isBuiltin reports whether fun denotes the named predeclared function.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// isPackageName reports whether id names an imported package among the
// given import path base names.
func isPackageName(pass *Pass, id *ast.Ident, names ...string) bool {
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	for _, n := range names {
		if pn.Imported().Path() == n {
			return true
		}
	}
	return false
}

type detflowComputer struct {
	pass  *Pass
	g     *CallGraph
	state map[*types.Func]int
	facts map[*types.Func]*DetflowFact
}

// nondetSource recognizes one direct clock, global-rand, or environment
// source expression, returning its description ("" if n is not a
// source). Methods on a seeded *rand.Rand come through a value, not the
// package name, so any other package-level math/rand function or
// variable consults the global generator.
func nondetSource(pass *Pass, n ast.Node) string {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok {
		return ""
	}
	path := pn.Imported().Path()
	name := sel.Sel.Name
	switch path {
	case "math/rand", "math/rand/v2":
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && !nondetRandAllowed[name] {
			if _, isType := obj.(*types.TypeName); !isType {
				return "global " + pn.Imported().Name() + "." + name
			}
		}
	default:
		if banned, ok := nondetBanned[path]; ok && banned[name] {
			return pn.Imported().Name() + "." + name
		}
	}
	return ""
}

// calleeFact mirrors hotcall's resolution: local summary or imported
// fact.
func (c *detflowComputer) calleeFact(fn *types.Func) *DetflowFact {
	if _, ok := c.g.Decls[fn]; ok {
		return c.summary(fn)
	}
	if f := c.pass.Facts.Func(fn); f != nil {
		return f.Detflow
	}
	return nil
}

// summary computes whether fn is a taint source to its callers: it
// contains an unsuppressed direct source, returns from inside a map
// range, or calls a tainted function.
func (c *detflowComputer) summary(fn *types.Func) *DetflowFact {
	switch c.state[fn] {
	case 1:
		return &DetflowFact{}
	case 2:
		return c.facts[fn]
	}
	c.state[fn] = 1
	fact := &DetflowFact{}
	fd := c.g.Decls[fn]

	mapRanges := mapRangeSpans(c.pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fact.Tainted {
			return false
		}
		if desc := nondetSource(c.pass, n); desc != "" {
			if !c.pass.Suppressed(n.Pos(), detflowMarker) {
				fact.Tainted = true
				fact.Chain = []string{desc + " (" + posLabel(c.pass.Fset, n.Pos()) + ")"}
			}
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) > 0 && insideSpan(mapRanges, ret.Pos()) {
			if !c.pass.Suppressed(ret.Pos(), detflowMarker) {
				fact.Tainted = true
				fact.Chain = []string{"returns a value chosen by map iteration order (" + posLabel(c.pass.Fset, ret.Pos()) + ")"}
			}
			return false
		}
		return true
	})
	if !fact.Tainted {
		for _, e := range c.g.Edges[fn] {
			if !ModuleFunc(c.pass, e.Callee) {
				continue
			}
			sub := c.calleeFact(e.Callee)
			if sub == nil || !sub.Tainted {
				continue
			}
			if c.pass.Suppressed(e.Pos, detflowMarker) {
				continue
			}
			fact.Tainted = true
			fact.Chain = append([]string{FuncDisplay(e.Callee) + " (" + posLabel(c.pass.Fset, e.Pos) + ")"}, sub.Chain...)
			break
		}
	}
	c.state[fn] = 2
	c.facts[fn] = fact
	return fact
}

// detflowMarker is the one suppression vocabulary for every
// nondeterminism rule.
const detflowMarker = "nondet-ok"

// reportSinks flags tainted values flowing into result fields or record
// calls within one function.
func (c *detflowComputer) reportSinks(fd *ast.FuncDecl) {
	pass := c.pass
	// Fixpoint over local assignments: a variable assigned a tainted
	// expression is tainted, with the chain explaining why.
	tainted := map[*types.Var][]string{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v := lhsVar(pass, id)
				if v == nil || tainted[v] != nil {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				if chain := c.exprTaint(rhs, tainted); chain != nil {
					tainted[v] = chain
					changed = true
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				sink := sinkFieldName(pass, sel)
				if sink == "" {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				if chain := c.exprTaint(rhs, tainted); chain != nil {
					pass.Reportf(n.Pos(), detflowMarker,
						"nondeterministic value flows into %s: %s; derive it from simulation state or annotate //odbgc:nondet-ok <reason>",
						sink, strings.Join(chain, " -> "))
				}
			}
		case *ast.CompositeLit:
			tv := pass.TypesInfo.TypeOf(n)
			if tv == nil || !isSinkType(pass, tv) {
				return true
			}
			for _, el := range n.Elts {
				expr := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					expr = kv.Value
				}
				if chain := c.exprTaint(expr, tainted); chain != nil {
					pass.Reportf(expr.Pos(), detflowMarker,
						"nondeterministic value flows into %s literal: %s; derive it from simulation state or annotate //odbgc:nondet-ok <reason>",
						typeDisplay(tv), strings.Join(chain, " -> "))
				}
			}
		case *ast.CallExpr:
			callee := StaticCallee(pass.TypesInfo, n)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Name() != "record" || callee.Pkg() == pass.Pkg {
				return true
			}
			for _, arg := range n.Args {
				if chain := c.exprTaint(arg, tainted); chain != nil {
					pass.Reportf(arg.Pos(), detflowMarker,
						"nondeterministic value passed to recording sink %s: %s; derive it from simulation state or annotate //odbgc:nondet-ok <reason>",
						FuncDisplay(callee), strings.Join(chain, " -> "))
				}
			}
		}
		return true
	})
}

// exprTaint returns the taint chain of an expression, or nil when the
// expression is deterministic: taint enters through a direct source, a
// call to a tainted function, or a use of a tainted local variable.
func (c *detflowComputer) exprTaint(expr ast.Expr, tainted map[*types.Var][]string) []string {
	pass := c.pass
	var chain []string
	ast.Inspect(expr, func(n ast.Node) bool {
		if chain != nil {
			return false
		}
		if desc := nondetSource(pass, n); desc != "" {
			if !pass.Suppressed(n.Pos(), detflowMarker) {
				chain = []string{desc + " (" + posLabel(pass.Fset, n.Pos()) + ")"}
			}
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := StaticCallee(pass.TypesInfo, call); callee != nil && ModuleFunc(pass, callee) {
				if sub := c.calleeFact(callee); sub != nil && sub.Tainted && !pass.Suppressed(call.Pos(), detflowMarker) {
					chain = append([]string{FuncDisplay(callee) + " (" + posLabel(pass.Fset, call.Pos()) + ")"}, sub.Chain...)
					return false
				}
			}
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				if sub := tainted[v]; sub != nil {
					chain = append([]string{v.Name() + " (" + posLabel(pass.Fset, id.Pos()) + ")"}, sub...)
					return false
				}
			}
		}
		return true
	})
	return chain
}

// lhsVar resolves the variable an assignment target identifier denotes
// (Defs for :=, Uses for =).
func lhsVar(pass *Pass, id *ast.Ident) *types.Var {
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// sinkFieldName reports the display name of a result-sink field
// selector (Type.Field), or "" if sel is not a sink write target.
func sinkFieldName(pass *Pass, sel *ast.SelectorExpr) string {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if !isSinkType(pass, t) {
		return ""
	}
	return typeDisplay(t) + "." + sel.Sel.Name
}

// isSinkType reports whether t is one of the module's result-carrying
// named types: Result/ActivationRecord/SampleRecord anywhere in the
// module, or any named type declared in internal/record.
func isSinkType(pass *Pass, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	local := moduleLocal(pass, pkg) || (pass.Facts != nil && pass.Facts.HasPackage(pkg.Path()))
	if !local {
		return false
	}
	return detflowSinkTypes[obj.Name()] || pkg.Name() == "record"
}

func typeDisplay(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			return pkg.Name() + "." + named.Obj().Name()
		}
		return named.Obj().Name()
	}
	return t.String()
}

// mapRangeSpans collects the body spans of every range-over-map in fn.
func mapRangeSpans(pass *Pass, fd *ast.FuncDecl) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && rangesOverMap(pass, rng) {
			spans = append(spans, [2]token.Pos{rng.Body.Pos(), rng.Body.End()})
		}
		return true
	})
	return spans
}

// rangesOverMap reports whether rng iterates a map.
func rangesOverMap(pass *Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func insideSpan(spans [][2]token.Pos, pos token.Pos) bool {
	for _, s := range spans {
		if s[0] <= pos && pos <= s[1] {
			return true
		}
	}
	return false
}
