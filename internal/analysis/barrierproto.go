package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// BarrierProto machine-checks the shard engine's epoch-barrier channel
// protocol, which DESIGN.md argues in prose: all traffic on the barrier
// channels (the engine's inbox/batchCh/freeCh — recognized by element
// type, any channel carrying a type declared in a package named "shard")
// and all remset-delta application happen only inside functions
// annotated //odbgc:barrier, and inside those functions the operations
// keep deterministic order.
//
// Rules:
//
//   - A function performing a barrier channel operation (send, receive,
//     close, range) on its own state must carry //odbgc:barrier in its
//     doc comment. Operations on a channel received as a parameter are
//     instead recorded as a fact, and the *caller* passing a barrier
//     channel at that position is treated as performing the operation —
//     so wrapping a send in a helper (in any package) cannot launder it
//     out of the protocol.
//   - Calls to unexported //odbgc:barrier functions are allowed only
//     from other barrier functions; exported barrier functions (the
//     engine's Run) are the protocol's entry points and callable from
//     anywhere.
//   - Inside a barrier function, no barrier operation or barrier call
//     may execute under map iteration (sender order must not depend on
//     Go's randomized map order), and no select may choose between
//     barrier channels (application order must not depend on arrival
//     order).
//
// Function literals attribute to their declaring function: the engine's
// demux callbacks run on the replay goroutine of the annotated function
// that built them. Deliberate exceptions carry //odbgc:barrier-ok
// <reason>.
var BarrierProto = &Analyzer{
	Name: "barrierproto",
	Doc: "requires shard barrier-channel traffic and delta application to " +
		"stay inside //odbgc:barrier functions, in deterministic order",
	Run:   runBarrierProto,
	Facts: true,
}

const (
	barrierMarker = "barrier-ok"
	// BarrierMarker annotates a function's doc comment to mark it as part
	// of the shard engine's epoch-barrier protocol.
	BarrierMarker = "//odbgc:barrier"
)

// IsBarrierFunc reports whether the declaration's doc comment carries
// the //odbgc:barrier marker (exact word: //odbgc:barrier-ok is the
// line-suppression, not the annotation).
func IsBarrierFunc(fn *ast.FuncDecl) bool {
	return hasMarker(fn.Doc, BarrierMarker)
}

// A barrierOp is one barrier-channel operation a function performs on
// non-parameter state.
type barrierOp struct {
	pos  token.Pos
	desc string
}

// bpSummary is one function's protocol involvement before reporting.
type bpSummary struct {
	annotated bool
	ops       []barrierOp
	paramOps  map[int]bool
}

func runBarrierProto(pass *Pass) error {
	g := BuildCallGraph(pass)
	sums := map[*types.Func]*bpSummary{}

	// Pass 1: direct channel operations, split into own-state ops and
	// parameter ops.
	for _, fn := range g.Nodes {
		fd := g.Decls[fn]
		if pass.InTestFile(fd.Pos()) {
			continue
		}
		s := &bpSummary{annotated: IsBarrierFunc(fd), paramOps: map[int]bool{}}
		sums[fn] = s
		collectBarrierOps(pass, fn, fd, s)
	}

	// Pass 2 (fixpoint): calls that hand a barrier channel to a function
	// with parameter ops perform the operation themselves — either as an
	// own-state op, or as a parameter op of the caller when the argument
	// is itself one of the caller's parameters.
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Nodes {
			s := sums[fn]
			if s == nil {
				continue
			}
			for _, e := range g.Edges[fn] {
				sub := calleeBarrierFact(pass, g, sums, e.Callee)
				if sub == nil || len(sub.ParamOps) == 0 {
					continue
				}
				call := callAt(pass, g.Decls[fn], e.Pos)
				if call == nil {
					continue
				}
				for _, idx := range sub.ParamOps {
					if idx >= len(call.Args) || !isBarrierChan(pass.TypesInfo.TypeOf(call.Args[idx])) {
						continue
					}
					if pidx, ok := paramIndex(pass, fn, call.Args[idx]); ok {
						if !s.paramOps[pidx] {
							s.paramOps[pidx] = true
							changed = true
						}
					} else if !hasOpAt(s, e.Pos) {
						s.ops = append(s.ops, barrierOp{pos: e.Pos,
							desc: "passes a barrier channel to " + FuncDisplay(e.Callee)})
						changed = true
					}
				}
			}
		}
	}

	// Export facts.
	if pass.Facts != nil {
		for _, fn := range g.Nodes {
			s := sums[fn]
			if s == nil {
				continue
			}
			fact := &BarrierFact{Annotated: s.annotated, Ops: len(s.ops) > 0}
			for idx := range s.paramOps {
				fact.ParamOps = append(fact.ParamOps, idx)
			}
			sortInts(fact.ParamOps)
			pass.Facts.Ensure(fn).Barrier = fact
		}
	}

	// Report.
	for _, fn := range g.Nodes {
		fd := g.Decls[fn]
		s := sums[fn]
		if s == nil {
			continue
		}
		mapSpans := mapRangeSpans(pass, fd)
		if !s.annotated {
			for _, op := range s.ops {
				pass.Reportf(op.pos, barrierMarker,
					"%s outside a %s function; the epoch-barrier protocol (DESIGN.md §8) confines barrier traffic to annotated functions — annotate %s or //odbgc:barrier-ok <reason>",
					op.desc, BarrierMarker, FuncDisplay(fn))
			}
		} else {
			for _, op := range s.ops {
				if insideSpan(mapSpans, op.pos) {
					pass.Reportf(op.pos, barrierMarker,
						"%s under map iteration; sender order would depend on Go's randomized map order — iterate a slice or sorted keys",
						op.desc)
				}
			}
			reportBarrierSelects(pass, fd)
		}
		for _, e := range g.Edges[fn] {
			sub := calleeBarrierFact(pass, g, sums, e.Callee)
			if sub == nil || !sub.Annotated || e.Callee.Exported() {
				continue
			}
			switch {
			case !s.annotated:
				pass.Reportf(e.Pos, barrierMarker,
					"call to barrier function %s from outside the barrier protocol; annotate %s with %s or //odbgc:barrier-ok <reason>",
					FuncDisplay(e.Callee), FuncDisplay(fn), BarrierMarker)
			case insideSpan(mapSpans, e.Pos):
				pass.Reportf(e.Pos, barrierMarker,
					"call to barrier function %s under map iteration; sender order would depend on Go's randomized map order — iterate a slice or sorted keys",
					FuncDisplay(e.Callee))
			}
		}
	}
	return nil
}

// collectBarrierOps records fn's direct channel operations on barrier
// channels, distinguishing parameter channels (exported as ParamOps)
// from own-state channels (ops that demand the annotation).
func collectBarrierOps(pass *Pass, fn *types.Func, fd *ast.FuncDecl, s *bpSummary) {
	record := func(expr ast.Expr, pos token.Pos, desc string) {
		if !isBarrierChan(pass.TypesInfo.TypeOf(expr)) {
			return
		}
		if idx, ok := paramIndex(pass, fn, expr); ok {
			s.paramOps[idx] = true
			return
		}
		s.ops = append(s.ops, barrierOp{pos: pos, desc: desc + " on shard barrier channel " + types.ExprString(expr)})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			record(n.Chan, n.Pos(), "send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				record(n.X, n.Pos(), "receive")
			}
		case *ast.CallExpr:
			if isBuiltin(pass, n.Fun, "close") && len(n.Args) == 1 {
				record(n.Args[0], n.Pos(), "close")
			}
		case *ast.RangeStmt:
			record(n.X, n.Pos(), "range")
		}
		return true
	})
}

// calleeBarrierFact resolves a callee's barrier summary: local summary
// for functions of this package, imported fact otherwise.
func calleeBarrierFact(pass *Pass, g *CallGraph, sums map[*types.Func]*bpSummary, fn *types.Func) *BarrierFact {
	if s, ok := sums[fn]; ok {
		fact := &BarrierFact{Annotated: s.annotated, Ops: len(s.ops) > 0}
		for idx := range s.paramOps {
			fact.ParamOps = append(fact.ParamOps, idx)
		}
		sortInts(fact.ParamOps)
		return fact
	}
	if _, ok := g.Decls[fn]; ok {
		return nil // declared here but in a test file
	}
	if f := pass.Facts.Func(fn); f != nil {
		return f.Barrier
	}
	return nil
}

// isBarrierChan reports whether t is a channel whose element is (a
// pointer to) a named type declared in a package named "shard".
func isBarrierChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	elem := ch.Elem()
	if p, ok := elem.(*types.Pointer); ok {
		elem = p.Elem()
	}
	named, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == "shard"
}

// paramIndex reports whether expr is a bare identifier denoting one of
// fn's parameters, and which one.
func paramIndex(pass *Pass, fn *types.Func, expr ast.Expr) (int, bool) {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return 0, false
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return i, true
		}
	}
	return 0, false
}

// callAt finds the call expression at pos within fd.
func callAt(pass *Pass, fd *ast.FuncDecl, pos token.Pos) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() == pos {
			found = call
			return false
		}
		return true
	})
	return found
}

// hasOpAt reports whether the summary already records an op at pos
// (keeps the fixpoint loop from re-appending forever).
func hasOpAt(s *bpSummary, pos token.Pos) bool {
	for _, op := range s.ops {
		if op.pos == pos {
			return true
		}
	}
	return false
}

// reportBarrierSelects flags selects that choose between two or more
// barrier-channel communications.
func reportBarrierSelects(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		barrierComms := 0
		for _, cl := range sel.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			if commOnBarrierChan(pass, cc.Comm) {
				barrierComms++
			}
		}
		if barrierComms >= 2 {
			pass.Reportf(sel.Pos(), barrierMarker,
				"select between %d barrier channels; application order would depend on arrival order — receive from each peer in fixed order", barrierComms)
		}
		return true
	})
}

// commOnBarrierChan reports whether a select comm statement operates on
// a barrier channel.
func commOnBarrierChan(pass *Pass, comm ast.Stmt) bool {
	var chanExpr ast.Expr
	switch s := comm.(type) {
	case *ast.SendStmt:
		chanExpr = s.Chan
	case *ast.ExprStmt:
		if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			chanExpr = u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				chanExpr = u.X
			}
		}
	}
	return chanExpr != nil && isBarrierChan(pass.TypesInfo.TypeOf(chanExpr))
}

func sortInts(s []int) { sort.Ints(s) }
