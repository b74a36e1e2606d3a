package cfg

import (
	"go/ast"
	"go/types"
)

// This file is the dataflow layer over function bodies: a derived-value
// (taint) propagation helper.

// defObj resolves the object an identifier defines or assigns.
func defObj(id *ast.Ident, info *types.Info) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// Derived computes the set of objects whose value may (transitively) derive
// from expressions matching seed, by fixpoint over the assignments of the
// whole function subtree — nested function literals included, so values
// captured by closures keep their taint. The analysis is flow-insensitive
// (a may-derive superset), which is the safe direction for the analyzers
// built on it.
func Derived(fn ast.Node, info *types.Info, seed func(ast.Expr) bool) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	tainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if ex, ok := n.(ast.Expr); ok && seed(ex) {
				found = true
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && derived[obj] {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		mark := func(id *ast.Ident) {
			obj := defObj(id, info)
			if obj != nil && !derived[obj] {
				derived[obj] = true
				changed = true
			}
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				// a, b := f(x): any tainted RHS taints every LHS (conservative
				// for multi-value assignments, exact for 1:1).
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && tainted(s.Rhs[i]) {
							mark(id)
						}
					}
				} else {
					any := false
					for _, rhs := range s.Rhs {
						if tainted(rhs) {
							any = true
						}
					}
					if any {
						for _, lhs := range s.Lhs {
							if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
								mark(id)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, rhs := range s.Values {
					if tainted(rhs) {
						for _, id := range s.Names {
							if id.Name != "_" {
								mark(id)
							}
						}
					}
				}
			case *ast.RangeStmt:
				if tainted(s.X) {
					for _, e := range []ast.Expr{s.Key, s.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							mark(id)
						}
					}
				}
			}
			return true
		})
	}
	return derived
}
