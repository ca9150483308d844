package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
)

// Call-graph construction for the interprocedural analyzers. The graph
// is static: an edge exists where the callee is resolvable at vet time —
// a direct call of a package-level function or a method call on a value
// of concrete type. Calls through interfaces and stored function values
// have no edge; the analyzers that consume the graph document what that
// conservatism means for each rule.

// A CallEdge is one resolved call site: the callee and where the call
// occurs in the caller.
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
}

// A CallGraph maps every function declared in the analyzed package to
// its declaration and outgoing resolved edges (in source order, module
// and non-module callees alike).
type CallGraph struct {
	// Decls maps each declared function to its syntax. Nodes holds the
	// same functions in declaration order, for deterministic iteration.
	Decls map[*types.Func]*ast.FuncDecl
	Nodes []*types.Func
	Edges map[*types.Func][]CallEdge
}

// BuildCallGraph walks the pass's files once and returns the package's
// call graph. Function literals contribute their call sites to the
// enclosing declared function: a closure runs on whatever path invokes
// it, and for the reachability questions the analyzers ask (can this
// allocate? can this move an arena?) attributing the
// literal's body to its declarer is the conservative answer.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		Decls: map[*types.Func]*ast.FuncDecl{},
		Edges: map[*types.Func][]CallEdge{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Decls[fn] = fd
			g.Nodes = append(g.Nodes, fn)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := StaticCallee(pass.TypesInfo, call); callee != nil {
					g.Edges[fn] = append(g.Edges[fn], CallEdge{Callee: callee, Pos: call.Pos()})
				}
				return true
			})
		}
	}
	return g
}

// StaticCallee returns the function a call statically resolves to: a
// package-level function, or a method invoked on a value whose static
// type is concrete. Interface method calls, calls of stored function
// values, type conversions, and builtins return nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method or method-value call; concrete receivers only.
			if fn, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
				return fn
			}
			return nil
		}
		// Qualified call pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ModuleFunc reports whether fn is subject to fact propagation: declared
// in the analyzed package itself, in this module, or in any package the
// fact store has analyzed (which is how multi-package fixtures, whose
// import paths are bare directory names, qualify).
func ModuleFunc(pass *Pass, fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if moduleLocal(pass, pkg) {
		return true
	}
	return pass.Facts != nil && pass.Facts.HasPackage(pkg.Path())
}

// posLabel renders a position as file.go:line for diagnostic chains —
// base name only, so chains stay readable and stable across checkouts.
func posLabel(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}
