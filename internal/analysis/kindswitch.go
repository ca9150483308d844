package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// KindSwitch makes enumeration switches exhaustive. Adding a sixth
// trace event kind or a seventh selection policy must break the build
// everywhere the enumeration is consumed — a silently skipped case in a
// replay loop would misreplay the stream and invalidate every paired
// comparison downstream.
//
// Two enumeration shapes are enforced:
//
//   - switches whose tag has a named integer type declared in this
//     module with at least two typed constants (trace.Kind,
//     pagebuf.Actor, shard.Assignment, ...): every constant of the
//     type must appear as a case. Unexported count sentinels (numXxx)
//     are not required.
//   - string switches in which any case is one of core's policy
//     registry constants (NameMutatedPartition, ...): every policy
//     Name* constant must appear.
//
// A default clause does not satisfy the analyzer — it is exactly what
// turns a new enumerator into silent misbehavior. Deliberately partial
// switches carry //odbgc:exhaustive-ok <reason>.
var KindSwitch = &Analyzer{
	Name: "kindswitch",
	Doc: "requires switches over module enumerations (trace.Kind, the " +
		"policy registry, ...) to cover every enumerator",
	Run: runKindSwitch,
}

const kindswitchMarker = "exhaustive-ok"

func runKindSwitch(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			if pass.InTestFile(sw.Pos()) {
				return false
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tagType := pass.TypesInfo.TypeOf(sw.Tag)
	if tagType == nil {
		return
	}
	covered := map[types.Object]bool{}
	var caseConsts []*types.Const
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			var id *ast.Ident
			switch e := e.(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				continue
			}
			if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok {
				covered[c] = true
				caseConsts = append(caseConsts, c)
			}
		}
	}

	members := enumMembers(pass, tagType, caseConsts)
	if len(members) < 2 {
		return
	}
	var missing []string
	for _, m := range members {
		if !covered[m] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(), kindswitchMarker,
		"switch over %s is not exhaustive: missing %s (a default clause does not count); add the cases or annotate //odbgc:exhaustive-ok <reason>",
		enumName(tagType, caseConsts), strings.Join(missing, ", "))
}

// enumMembers returns the enumerators the switch must cover, or nil if
// the tag is not a recognized enumeration.
func enumMembers(pass *Pass, tagType types.Type, caseConsts []*types.Const) []*types.Const {
	// Named integer enumeration declared in this module.
	if named, ok := tagType.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() == nil || !moduleLocal(pass, obj.Pkg()) {
			return nil
		}
		if b, ok := named.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
			return nil
		}
		var members []*types.Const
		scope := obj.Pkg().Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !types.Identical(c.Type(), tagType) {
				continue
			}
			// Count sentinels (numActors, ...) delimit the range; they
			// are not values a switch should handle.
			if !c.Exported() && strings.HasPrefix(c.Name(), "num") {
				continue
			}
			members = append(members, c)
		}
		return members
	}
	// Policy registry: a string switch with at least one core.Name*
	// constant case.
	if b, ok := tagType.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		for _, c := range caseConsts {
			pkg := c.Pkg()
			if pkg != nil && pkg.Name() == "core" && strings.HasPrefix(c.Name(), "Name") {
				var members []*types.Const
				scope := pkg.Scope()
				for _, name := range scope.Names() {
					m, ok := scope.Lookup(name).(*types.Const)
					if ok && strings.HasPrefix(m.Name(), "Name") {
						if mb, ok := m.Type().Underlying().(*types.Basic); ok && mb.Info()&types.IsString != 0 {
							members = append(members, m)
						}
					}
				}
				return members
			}
		}
	}
	return nil
}

// moduleLocal reports whether pkg belongs to this module: the analyzed
// package itself or anything under the odbgc module path. Fixture
// packages type-checked by atest use their package name as their path,
// so same-package enums always qualify.
func moduleLocal(pass *Pass, pkg *types.Package) bool {
	return pkg == pass.Pkg || pkg.Path() == "odbgc" || strings.HasPrefix(pkg.Path(), "odbgc/")
}

func enumName(tagType types.Type, caseConsts []*types.Const) string {
	if named, ok := tagType.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			return pkg.Name() + "." + named.Obj().Name()
		}
		return named.Obj().Name()
	}
	return "the policy registry"
}
