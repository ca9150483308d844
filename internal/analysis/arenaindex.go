package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ArenaIndex guards the repository's arenas: the intrusive index-linked
// arenas (the page buffer's []frame, the trace cache's []cacheNode),
// slices of structs chained by int32 prev/next indices where -1 is the
// nil sentinel because 0 is a valid slot, and the flat arenas a struct
// field marks with //odbgc:arena (the heap's slot storage and field
// arena), whose backing arrays grow or are compacted in place.
//
// Two mistakes are easy to make and survive every test until the arena
// happens to grow or slot 0 happens to be involved:
//
//   - holding a pointer into an arena (&arena[i]) or a view of it
//     (arena[i:j], or the result of a function returning one) across a
//     call that can move the arena's contents — a function that
//     reassigns the arena field, directly or through its callees, in
//     this package or, through facts, in another — or across a direct
//     reassignment of the slice: the pointer then reads a stale array;
//   - treating 0 as the "no frame" value: comparing a link field to 0,
//     assigning 0 to one, or building an arena element literal that
//     leaves the link fields to their zero value.
//
// Intentional exceptions carry //odbgc:arena-ok <reason>.
var ArenaIndex = &Analyzer{
	Name: "arenaindex",
	Doc: "flags stale pointers into arenas and 0-vs-(-1) " +
		"sentinel confusion in intrusive arenas' link fields",
	Run:   runArenaIndex,
	Facts: true,
}

// arenaDirective marks a struct field as a flat arena.
const arenaDirective = "//odbgc:arena"

const arenaMarker = "arena-ok"

// arenaLinkFields are the int32 struct fields treated as intra-arena
// links when they appear on an arena element type ("prev", "next") or
// beside an arena slice field ("head", "tail", "free", "hand").
var arenaElemLinks = map[string]bool{"prev": true, "next": true}
var arenaOwnerLinks = map[string]bool{"head": true, "tail": true, "free": true, "hand": true}

// isArenaElem reports whether t is a named struct type with int32 prev
// and next fields — the shape of an intrusive arena element.
func isArenaElem(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	links := 0
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if arenaElemLinks[f.Name()] && isInt32(f.Type()) {
			links++
		}
	}
	return links == 2
}

// isArenaSlice reports whether t is a slice of arena elements.
func isArenaSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	return ok && isArenaElem(sl.Elem())
}

func isInt32(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int32
}

func runArenaIndex(pass *Pass) error {
	ai := newArenaInfo(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.InTestFile(fn.Pos()) {
				continue
			}
			checkSentinels(pass, fn)
			checkHeldPointers(pass, fn, ai)
		}
	}
	return nil
}

// linkFieldSel reports whether sel selects an arena link field: prev or
// next on an arena element, or head/tail/free/hand on a struct that
// also holds an arena slice.
func linkFieldSel(pass *Pass, sel *ast.SelectorExpr) bool {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	f, ok := selection.Obj().(*types.Var)
	if !ok || !isInt32(f.Type()) {
		return false
	}
	recv := selection.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if arenaElemLinks[f.Name()] && isArenaElem(recv) {
		return true
	}
	if !arenaOwnerLinks[f.Name()] {
		return false
	}
	owner, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < owner.NumFields(); i++ {
		if isArenaSlice(owner.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isZeroLiteral reports whether e is the integer constant 0.
func isZeroLiteral(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	// Only flag a literal 0 written in source, not a named constant
	// that happens to be zero (a deliberately defined sentinel).
	if _, isLit := e.(*ast.BasicLit); !isLit {
		return false
	}
	return tv.Value.String() == "0"
}

// checkSentinels flags comparisons and assignments of link fields
// against the literal 0, and arena element literals that leave the link
// fields implicitly zero.
func checkSentinels(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
				if sel, ok := pair[0].(*ast.SelectorExpr); ok && linkFieldSel(pass, sel) && isZeroLiteral(pass, pair[1]) {
					pass.Reportf(n.Pos(), arenaMarker,
						"arena link field %s compared to 0, which is a valid slot; the nil sentinel is -1", sel.Sel.Name)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if sel, ok := lhs.(*ast.SelectorExpr); ok && linkFieldSel(pass, sel) && isZeroLiteral(pass, n.Rhs[i]) {
					pass.Reportf(n.Pos(), arenaMarker,
						"arena link field %s assigned 0, which is a valid slot; the nil sentinel is -1", sel.Sel.Name)
				}
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil || !isArenaElem(t) {
				return true
			}
			st := t.Underlying().(*types.Struct)
			if len(n.Elts) > 0 && !isKeyed(n) {
				return true // positional literal sets every field
			}
			set := map[string]bool{}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
						if arenaElemLinks[id.Name] && isZeroLiteral(pass, kv.Value) {
							pass.Reportf(kv.Pos(), arenaMarker,
								"arena link field %s set to 0, which is a valid slot; the nil sentinel is -1", id.Name)
						}
					}
				}
			}
			for i := 0; i < st.NumFields(); i++ {
				name := st.Field(i).Name()
				if arenaElemLinks[name] && !set[name] {
					pass.Reportf(n.Pos(), arenaMarker,
						"arena element literal leaves link field %s at 0, which is a valid slot; set it to the -1 sentinel", name)
				}
			}
		}
		return true
	})
}

func isKeyed(lit *ast.CompositeLit) bool {
	for _, e := range lit.Elts {
		if _, ok := e.(*ast.KeyValueExpr); ok {
			return true
		}
	}
	return false
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
					if key := ai.fieldKey(lhs); key != "" {
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

// fieldKey returns the identity of the arena field e selects — one of
// an intrusive arena slice type, or one marked //odbgc:arena — as
// pkgpath.Owner.field, or "" when e selects no arena field.
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
	if !ok || (!ai.annotated[v] && !isArenaSlice(v.Type())) {
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

// derivedKey reports whether e points into or views an arena: &a[i] or
// a[i:j] for an arena field a, or a call to a function whose result is a
// view of one. It returns the arena's key and, for the first two forms,
// the printed arena expression, which a direct reassignment must match.
func (ai *arenaInfo) derivedKey(e ast.Expr) (key, slice string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if idx, ok := e.X.(*ast.IndexExpr); ok && e.Op == token.AND {
			if key := ai.fieldKey(idx.X); key != "" {
				return key, types.ExprString(idx.X)
			}
		}
	case *ast.SliceExpr:
		if key := ai.fieldKey(e.X); key != "" {
			return key, types.ExprString(e.X)
		}
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
	key   string     // the arena's identity ("" for a plain slice variable)
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
			if key == "" && slice == "" {
				// A pointer into an intrusive arena held in a plain
				// variable: only direct reassignment can move it.
				un, ok := rhs.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				idx, ok := un.X.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if t := pass.TypesInfo.TypeOf(idx.X); t == nil || !isArenaSlice(t) {
					continue
				}
				slice = types.ExprString(idx.X)
			}
			if key == "" && slice == "" {
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
					if types.ExprString(lhs) == hp.slice {
						growPos, growDesc = n.End(), "reassignment of "+hp.slice
					}
				}
			case *ast.CallExpr:
				if n.Pos() <= hp.pos || hp.key == "" {
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
