package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ArenaIndex guards the flat arenas a struct field marks with
// //odbgc:arena (the page buffer's frames, the heap's slot storage and
// per-partition field arenas), whose backing arrays grow or are
// truncated in place. A field of slices marked //odbgc:arena holds one
// arena per element: h.fields[p] is partition p's field arena.
//
// One mistake is easy to make and survives every test until the arena
// happens to grow: holding a pointer into an arena (&arena[i]) or a view
// of it (arena[i:j], or the result of a function returning one) across a
// call that can move the arena's contents — a function that reassigns
// the arena field, directly or through its callees, in this package or,
// through facts, in another — or across a direct reassignment of the
// slice: the pointer then reads a stale array. Arenas that are elements
// of one field are not told apart: a move of h.fields[q] counts as a
// move of the arena h.fields[p] a pointer was taken from.
//
// Intentional exceptions carry //odbgc:arena-ok <reason>.
var ArenaIndex = &Analyzer{
	Name:  "arenaindex",
	Doc:   "flags pointers into //odbgc:arena fields held across a move of the arena",
	Run:   runArenaIndex,
	Facts: true,
}

// arenaDirective marks a struct field as a flat arena.
const arenaDirective = "//odbgc:arena"

const arenaMarker = "arena-ok"

func runArenaIndex(pass *Pass) error {
	ai := newArenaInfo(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.InTestFile(fn.Pos()) {
				continue
			}
			checkHeldPointers(pass, fn, ai)
		}
	}
	return nil
}

// arenaInfo is one package's view of its arenas: the fields marked
// //odbgc:arena, and per function the arenas it can move and the arena
// its result is a view of. Both summaries are exported as facts.
type arenaInfo struct {
	pass      *Pass
	annotated map[*types.Var]bool
	g         *CallGraph
	moves     map[*types.Func]map[string]bool
	views     map[*types.Func]string
}

func newArenaInfo(pass *Pass) *arenaInfo {
	ai := &arenaInfo{
		pass:      pass,
		annotated: annotatedArenaFields(pass),
		g:         BuildCallGraph(pass),
		moves:     map[*types.Func]map[string]bool{},
		views:     map[*types.Func]string{},
	}
	for _, fn := range ai.g.Nodes {
		body := ai.g.Decls[fn].Body
		moved := map[string]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if key, _ := ai.arenaExpr(lhs); key != "" {
						moved[key] = true
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if key, _ := ai.derivedKey(r); key != "" {
						ai.views[fn] = key
					}
				}
			}
			return true
		})
		ai.moves[fn] = moved
	}
	// Moving propagates from callees to callers; iterate to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, fn := range ai.g.Nodes {
			for _, e := range ai.g.Edges[fn] {
				for key := range ai.calleeMoves(e.Callee) {
					if !ai.moves[fn][key] {
						ai.moves[fn][key] = true
						changed = true
					}
				}
			}
		}
	}
	if pass.Facts != nil {
		for _, fn := range ai.g.Nodes {
			if pass.InTestFile(ai.g.Decls[fn].Pos()) || (len(ai.moves[fn]) == 0 && ai.views[fn] == "") {
				continue
			}
			fact := &ArenaFact{View: ai.views[fn]}
			for key := range ai.moves[fn] {
				fact.Moves = append(fact.Moves, key)
			}
			sort.Strings(fact.Moves)
			pass.Facts.Ensure(fn).Arena = fact
		}
	}
	return ai
}

// annotatedArenaFields returns the struct fields of this package whose
// doc or line comment carries //odbgc:arena.
func annotatedArenaFields(pass *Pass) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if !hasMarker(f.Doc, arenaDirective) && !hasMarker(f.Comment, arenaDirective) {
					continue
				}
				for _, name := range f.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldKey returns the identity of the //odbgc:arena field e selects,
// as pkgpath.Owner.field, or "" when e selects no arena field.
func (ai *arenaInfo) fieldKey(e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := ai.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok || !ai.annotated[v] {
		return ""
	}
	recv := selection.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	owner := "?"
	if named, ok := recv.(*types.Named); ok {
		owner = named.Obj().Name()
	}
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	return pkg + "." + owner + "." + v.Name()
}

// arenaExpr resolves e to the arena field it selects: the field itself,
// or an element of it that is a slice (h.fields[p] of a field fields
// [][]Slot). It returns the field's key and printed selector, or "" when
// e selects no arena; an element that is not a slice (h.slots[s]) is
// not an arena.
func (ai *arenaInfo) arenaExpr(e ast.Expr) (key, sel string) {
	e = ast.Unparen(e)
	for {
		idx, ok := e.(*ast.IndexExpr)
		if !ok {
			break
		}
		if _, ok := ai.pass.TypesInfo.TypeOf(idx).Underlying().(*types.Slice); !ok {
			return "", ""
		}
		e = ast.Unparen(idx.X)
	}
	if key = ai.fieldKey(e); key == "" {
		return "", ""
	}
	return key, types.ExprString(e)
}

// derivedKey reports whether e points into or views an arena: &a[i] or
// a[i:j] for an arena a, an arena that is an element of an arena field
// (h.fields[p]), or a call to a function whose result is a view of one.
// It returns the arena's key and, for all but calls, the printed arena
// field, which a direct reassignment must match.
func (ai *arenaInfo) derivedKey(e ast.Expr) (key, slice string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if idx, ok := e.X.(*ast.IndexExpr); ok && e.Op == token.AND {
			return ai.arenaExpr(idx.X)
		}
	case *ast.SliceExpr:
		return ai.arenaExpr(e.X)
	case *ast.IndexExpr:
		return ai.arenaExpr(e)
	case *ast.CallExpr:
		if callee := StaticCallee(ai.pass.TypesInfo, e); callee != nil {
			return ai.calleeView(callee), ""
		}
	}
	return "", ""
}

// calleeMoves returns the arenas a callee can move: computed here for
// this package's functions, imported from facts otherwise.
func (ai *arenaInfo) calleeMoves(fn *types.Func) map[string]bool {
	if m, ok := ai.moves[fn]; ok {
		return m
	}
	out := map[string]bool{}
	if f := ai.pass.Facts.Func(fn); f != nil && f.Arena != nil {
		for _, key := range f.Arena.Moves {
			out[key] = true
		}
	}
	return out
}

// calleeView returns the arena a callee's result is a view of, or "".
func (ai *arenaInfo) calleeView(fn *types.Func) string {
	if _, ok := ai.g.Decls[fn]; ok {
		return ai.views[fn]
	}
	if f := ai.pass.Facts.Func(fn); f != nil && f.Arena != nil {
		return f.Arena.View
	}
	return ""
}

// heldPointer records one binding of a pointer into, or a view of, an
// arena.
type heldPointer struct {
	obj   *types.Var // the pointer or view variable
	key   string     // the arena's identity
	slice string     // printed arena expression, for direct-reassignment matching
	pos   token.Pos
}

// arenaName is the field name ending an arena key, for diagnostics.
func arenaName(key string) string { return key[strings.LastIndex(key, ".")+1:] }

// checkHeldPointers flags uses of an arena pointer or view after a
// statement that can move the arena it points into.
func checkHeldPointers(pass *Pass, fn *ast.FuncDecl, ai *arenaInfo) {
	var held []heldPointer
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			key, slice := ai.derivedKey(rhs)
			if key == "" {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			var v *types.Var
			if as.Tok == token.DEFINE {
				v, _ = pass.TypesInfo.Defs[id].(*types.Var)
			} else {
				v, _ = pass.TypesInfo.Uses[id].(*types.Var)
			}
			if v == nil {
				continue
			}
			held = append(held, heldPointer{obj: v, key: key, slice: slice, pos: as.Pos()})
		}
		return true
	})

	// Find the first statement after each binding that can move its
	// arena; report the pointer's uses after it. Uses inside the moving
	// call or assignment itself are evaluated before the move.
	for _, hp := range held {
		growPos := token.NoPos
		var growDesc string
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if growPos.IsValid() {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Pos() <= hp.pos || hp.slice == "" {
					return true
				}
				for _, lhs := range n.Lhs {
					if _, sel := ai.arenaExpr(lhs); sel == hp.slice {
						growPos, growDesc = n.End(), "reassignment of "+hp.slice
					}
				}
			case *ast.CallExpr:
				if n.Pos() <= hp.pos {
					return true
				}
				if callee := StaticCallee(pass.TypesInfo, n); callee != nil && ai.calleeMoves(callee)[hp.key] {
					growPos, growDesc = n.End(), "call to "+callee.Name()+", which grows "+arenaName(hp.key)
				}
			}
			return true
		})
		if !growPos.IsValid() {
			continue
		}
		// A reassignment of the variable after the move re-derives it.
		rebind := token.NoPos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Pos() <= growPos || rebind.IsValid() {
				return !rebind.IsValid()
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == hp.obj {
					rebind = as.Pos()
				}
			}
			return true
		})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id.Pos() <= growPos || (rebind.IsValid() && id.Pos() >= rebind) {
				return true
			}
			if pass.TypesInfo.Uses[id] == hp.obj {
				arena := hp.slice
				if arena == "" {
					arena = arenaName(hp.key)
				}
				pass.Reportf(id.Pos(), arenaMarker,
					"%s points into arena %s but is used after %s; re-index the arena instead",
					id.Name, arena, growDesc)
				return false
			}
			return true
		})
	}
}
