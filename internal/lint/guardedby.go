package lint

import (
	"go/ast"
	"go/types"

	"wise/internal/lint/callgraph"
)

// GuardedByAnalyzer enforces `// guarded by <lock>` field annotations: every
// read or write of an annotated field must happen with the named lock
// provably held (must-analysis, including caller-provided entry-held locks
// from the interprocedural fixpoint), and writes to fields guarded by a
// sync.RWMutex need the write lock, not just RLock. Malformed annotations are
// themselves findings — a guard that names no mutex protects nothing.
var GuardedByAnalyzer = &Analyzer{
	Name:     "guardedby",
	Category: "concurrency",
	Doc: "Struct fields annotated `// guarded by <lock>` (a sibling mutex field or " +
		"a package-level mutex) must only be accessed with that lock held; writes " +
		"under an RWMutex need the write lock. The check is interprocedural: a " +
		"private method whose every caller holds the lock is analyzed as " +
		"lock-held on entry.",
	Run: runGuardedBy,
}

func runGuardedBy(pass *Pass) {
	a := pass.Mod.analysisFor(pass.Pkg)
	for _, bg := range a.badGuards {
		if inPackageFile(pass, bg.file) {
			pass.Reportf(bg.pos, "%s", bg.reason)
		}
	}
	if len(a.guarded) == 0 {
		return
	}
	for _, u := range a.units[pass.Pkg] {
		checkGuardedAccesses(pass, a, u)
	}
}

func inPackageFile(pass *Pass, file string) bool {
	for _, f := range pass.Pkg.Filenames {
		if f == file {
			return true
		}
	}
	return false
}

func checkGuardedAccesses(pass *Pass, a *modAnalysis, u *lockUnit) {
	info := pass.Pkg.Info
	writes := writtenSelectors(u)
	walkUnitDirect(u, func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		field, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return
		}
		spec, guarded := a.guarded[field]
		if !guarded {
			return
		}
		verb := "read"
		if writes[sel] {
			verb = "written"
		}
		required := spec.lock
		if !spec.global {
			base := callgraph.RenderPath(sel.X)
			if base == "" {
				pass.Reportf(sel.Pos(),
					"%s.%s is guarded by %s, but the access path has no stable root; the guard cannot be verified — bind the struct to a variable first",
					spec.owner, field.Name(), spec.lock)
				return
			}
			required = base + "." + spec.lock
		}
		held := a.heldAt(pass.Pkg, u, sel.Pos())
		h, ok := held[required]
		if !ok {
			pass.Reportf(sel.Pos(),
				"%s.%s is guarded by %s but %s without it held on every path here",
				spec.owner, field.Name(), required, verb)
			return
		}
		if writes[sel] && !h.Write {
			pass.Reportf(sel.Pos(),
				"%s.%s is guarded by %s but written while only the read lock is held; RLock does not exclude other readers",
				spec.owner, field.Name(), required)
		}
	})
}

// walkUnitDirect visits the nodes directly in a unit's body, skipping nested
// function literals (each literal is its own unit with its own lock flow).
func walkUnitDirect(u *lockUnit, fn func(ast.Node)) {
	ast.Inspect(u.body(), func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.lit {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// writtenSelectors collects the selector expressions a unit writes through:
// assignment targets, ++/--, and address-taken fields (an escaping &x.f can
// be written anywhere, so it counts as a write site). Index and deref layers
// are peeled — s.buf[i] = v writes s.buf.
func writtenSelectors(u *lockUnit) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				out[x] = true
				return
			default:
				return
			}
		}
	}
	walkUnitDirect(u, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				mark(x.X)
			}
		}
	})
	return out
}
