package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"wise/internal/lint/cfg"
)

// CtxPropagateAnalyzer enforces the cancellation contract PR 3 introduced: a
// function that accepts a context.Context must hand it to every callee that
// can take one (accepting ctx and then calling context-blind or
// context.Background() variants silently breaks checkpoint-then-exit), and —
// in the labeling/CV packages (internal/perf, internal/ml), where loop
// bodies measure kernels or train folds for seconds at a time — every loop
// that calls into the module must either check ctx.Err()/ctx.Done() or pass
// a context into a callee. Derived contexts and done-channels are recognized
// through dataflow (cfg.Derived), so `ictx, cancel := context.WithCancel(ctx)`
// and `done := ctx.Done()` both satisfy the check.
var CtxPropagateAnalyzer = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "flags context-aware functions that drop ctx when calling ctx-accepting callees, and uncancellable hot loops in the labeling/CV packages",
	Run:  runCtxPropagate,
}

func runCtxPropagate(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxUnit(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && ctxParam(pass.Pkg.Info, lit.Type) != "" {
					checkCtxUnit(pass, lit)
				}
				return true
			})
		}
	}
}

// ctxParam returns the name of the first context.Context parameter of a
// function type, or "" when there is none (or it is blank).
func ctxParam(info *types.Info, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		if !isContextType(info.Types[field.Type].Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxUnit checks one function (declaration or literal) that declares a
// ctx parameter. Nested literals with their own ctx parameter are skipped —
// they are units of their own; literals that merely capture ctx are walked
// inline.
func checkCtxUnit(pass *Pass, unit ast.Node) {
	info := pass.Pkg.Info
	var ft *ast.FuncType
	var body *ast.BlockStmt
	switch u := unit.(type) {
	case *ast.FuncDecl:
		ft, body = u.Type, u.Body
	case *ast.FuncLit:
		ft, body = u.Type, u.Body
	}
	ctxName := ctxParam(info, ft)
	if ctxName == "" || body == nil {
		return
	}
	derived := cfg.Derived(unit, info, func(e ast.Expr) bool {
		return isContextType(info.Types[e].Type)
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			if ctxParam(info, s.Type) != "" {
				return false // its own unit
			}
		case *ast.CallExpr:
			checkCtxCall(pass, s, ctxName)
		}
		return true
	})
	if inCancellationScope(pass.Pkg.Path) {
		checkLoopCancellation(pass, unit, body, derived)
	}
}

// checkCtxCall flags calls to ctx-accepting callees that are not given a
// context.
func checkCtxCall(pass *Pass, call *ast.CallExpr, ctxName string) {
	info := pass.Pkg.Info
	sig := calleeSignature(info, call)
	if sig == nil {
		return
	}
	ctxAt := -1
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			ctxAt = i
			break
		}
	}
	if ctxAt < 0 {
		return
	}
	name := "callee"
	if id := calleeFunc(call); id != nil {
		name = id.Name
	}
	for _, arg := range call.Args {
		if !isContextType(info.Types[arg].Type) {
			continue
		}
		// A context is passed; the only violation left is explicitly
		// discarding the in-scope one.
		if bg := backgroundCall(info, arg); bg != "" {
			fix := &SuggestedFix{
				Message: fmt.Sprintf("pass %s instead of context.%s()", ctxName, bg),
				Edits:   []TextEdit{{Pos: arg.Pos(), End: arg.End(), NewText: ctxName}},
			}
			pass.ReportfFix(arg.Pos(), fix,
				"call to %s discards the in-scope %s by passing context.%s()", name, ctxName, bg)
		}
		return
	}
	// No context argument at all.
	var fix *SuggestedFix
	if ctxAt == 0 && !sig.Variadic() && len(call.Args) == sig.Params().Len()-1 {
		fix = &SuggestedFix{
			Message: fmt.Sprintf("pass %s as the first argument", ctxName),
			Edits:   []TextEdit{{Pos: call.Lparen + 1, End: call.Lparen + 1, NewText: ctxName + ", "}},
		}
	}
	if fix != nil {
		pass.ReportfFix(call.Pos(), fix,
			"%s accepts a context.Context but the in-scope %s is not passed", name, ctxName)
	} else {
		pass.Reportf(call.Pos(),
			"%s accepts a context.Context but the in-scope %s is not passed", name, ctxName)
	}
}

// backgroundCall reports whether e is context.Background() or context.TODO(),
// returning the function name.
func backgroundCall(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := resolvedFunc(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO") {
		return fn.Name()
	}
	return ""
}

func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// cancellationScopes are the packages whose loops run long enough that an
// uncancellable iteration defeats checkpoint-then-exit (RESILIENCE.md).
var cancellationScopes = map[string]bool{"ml": true, "perf": true, "serve": true}

func inCancellationScope(path string) bool {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) && cancellationScopes[segs[i+1]] {
			return true
		}
	}
	return false
}

// checkLoopCancellation flags loops in the unit's own body (not in nested
// literals — worker closures are paced by their scheduler) that call into
// the module without any cancellation signal: no ctx.Err()/ctx.Done() call,
// no context passed to a callee, and no receive from a derived done-channel.
func checkLoopCancellation(pass *Pass, unit ast.Node, body *ast.BlockStmt, derived map[types.Object]bool) {
	info := pass.Pkg.Info
	g := cfg.FuncGraph(unit)
	if g == nil {
		return
	}
	modPrefix := pass.Mod.ModPath
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if t := info.Types[s.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					return true // drained by the sender; receive is the signal
				}
			}
			checkOneLoop(pass, g, s, s.Body, derived, modPrefix)
		case *ast.ForStmt:
			checkOneLoop(pass, g, s, s.Body, derived, modPrefix)
		}
		return true
	})
}

func checkOneLoop(pass *Pass, g *cfg.Graph, loop ast.Stmt, body *ast.BlockStmt, derived map[types.Object]bool, modPrefix string) {
	info := pass.Pkg.Info
	callsModule := false
	cancellable := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Err" || sel.Sel.Name == "Done") &&
				isCtxValue(info, derived, sel.X) {
				cancellable = true
			}
			for _, arg := range s.Args {
				if isCtxValue(info, derived, arg) {
					cancellable = true // callee owns cancellation
				}
			}
			if fn := resolvedFunc(info, s); fn != nil && fn.Pkg() != nil {
				p := fn.Pkg().Path()
				if p == modPrefix || strings.HasPrefix(p, modPrefix+"/") {
					callsModule = true
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && isDerivedIdent(info, derived, s.X) {
				cancellable = true // receive from a done-channel
			}
		}
		return true
	})
	if callsModule && !cancellable {
		depth := g.LoopDepthAt(body.Pos())
		if depth < 1 {
			depth = 1
		}
		pass.Reportf(loop.Pos(),
			"loop calls into the pipeline but never checks ctx.Err()/ctx.Done() and passes no context (depth %d); long iterations defeat checkpoint-then-exit", depth)
	}
}

// isCtxValue reports whether e is a context-typed expression or an
// identifier the dataflow marked as context-derived.
func isCtxValue(info *types.Info, derived map[types.Object]bool, e ast.Expr) bool {
	if isContextType(info.Types[e].Type) {
		return true
	}
	return isDerivedIdent(info, derived, e)
}

func isDerivedIdent(info *types.Info, derived map[types.Object]bool, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && derived[obj]
}
