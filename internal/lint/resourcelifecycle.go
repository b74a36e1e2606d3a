package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"wise/internal/lint/callgraph"
	"wise/internal/lint/cfg"
)

// ResourceLifecycleAnalyzer checks that every releasable resource acquired
// in a function is released on every path out of it, or provably hands
// ownership elsewhere. The serving stack (internal/serve, internal/registry)
// runs indefinitely: a ticker that never stops, a context whose cancel is
// dropped, or a file handle leaked on one error branch is a slow resource
// exhaustion that no test catches and production does.
//
// Tracked acquisitions and their releases:
//
//	time.NewTicker / time.NewTimer          -> Stop
//	context.WithCancel/Timeout/Deadline     -> calling the CancelFunc
//	os.Open/Create/OpenFile/CreateTemp      -> Close
//	net/http *Response results (Get, Do, …) -> Body.Close
//	resilience.CreateAtomic                 -> Commit or Abort
//
// A release counts when it dominates every function exit reachable from the
// acquisition: a defer (which runs on every exit once registered), or an
// explicit call on every path. Error-guard returns (`if err != nil
// { return … }` for the acquisition's own error) are exempt paths — the
// resource was never acquired there. Ownership transfers are out of scope by
// design: resources that are returned, stored in a field/global/composite,
// captured by a non-deferred closure, or passed to a callee that (for
// module-internal callees, checked through the call graph) releases, stores,
// or forwards them.
//
// The second rule is structural: a Start-shaped method that spawns a
// long-lived goroutine (one with a for or select loop) must have a matching
// Stop/Close/Shutdown/Drain/Wait method on the same type containing a join
// operation (wg.Wait, channel receive/close, or calling a held CancelFunc) —
// otherwise nothing can ever reclaim the goroutine.
var ResourceLifecycleAnalyzer = &Analyzer{
	Name:     "resourcelifecycle",
	Category: "lifecycle",
	Doc: "Tickers, timers, cancel funcs, files, response bodies, and atomic-write " +
		"handles must be released on every path (defer-aware, interprocedural " +
		"through module callees); Start-shaped methods spawning long-lived " +
		"goroutines need a joining Stop counterpart",
	Run: runResourceLifecycle,
}

func runResourceLifecycle(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, unit := range functionUnits(fd) {
				checkResourceUnit(pass, unit)
			}
			checkStartStop(pass, fd)
		}
	}
}

// resKind describes how one tracked resource is released.
type resKind int

const (
	resStop   resKind = iota // .Stop()
	resCancel                // calling the variable itself (CancelFunc)
	resClose                 // .Close()
	resBody                  // .Body.Close()
	resAtomic                // .Commit() or .Abort()
)

func (k resKind) what() string {
	switch k {
	case resStop:
		return "Stop"
	case resCancel:
		return "calling the cancel func"
	case resClose:
		return "Close"
	case resBody:
		return "Body.Close"
	default:
		return "Commit or Abort"
	}
}

// acquisition is one tracked resource: the variable it was bound to, the
// call that produced it, and (for `v, err :=` forms) the paired error
// object whose guard-returns are exempt paths.
type acquisition struct {
	obj  types.Object
	kind resKind
	call *ast.CallExpr
	err  types.Object // nil when the acquisition returns no error
}

// acquisitionKind classifies a call as a tracked resource constructor.
// hasErr reports whether the tracked value is paired with an error result.
func acquisitionKind(info *types.Info, call *ast.CallExpr) (kind resKind, resIdx int, hasErr bool, ok bool) {
	fn := resolvedFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return 0, 0, false, false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch {
	case pkg == "time" && (name == "NewTicker" || name == "NewTimer"):
		return resStop, 0, false, true
	case pkg == "context" && (name == "WithCancel" || name == "WithTimeout" || name == "WithDeadline"):
		return resCancel, 1, false, true
	case pkg == "os" && (name == "Open" || name == "Create" || name == "OpenFile" || name == "CreateTemp"):
		return resClose, 0, true, true
	case pkg == "net/http" && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head" || name == "Do"):
		return resBody, 0, true, true
	case strings.HasSuffix(pkg, "internal/resilience") && name == "CreateAtomic":
		return resAtomic, 0, true, true
	}
	return 0, 0, false, false
}

// checkResourceUnit analyzes one function unit (declaration or literal):
// collect acquisitions bound to local variables, drop the ones whose
// ownership escapes, then require a release on every path to exit.
func checkResourceUnit(pass *Pass, unit ast.Node) {
	body := unitBody(unit)
	if body == nil {
		return
	}
	info := pass.Pkg.Info

	var acqs []acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != unit {
			return false // nested literals are their own units
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, resIdx, hasErr, ok := acquisitionKind(info, call)
		if !ok || resIdx >= len(as.Lhs) {
			return true
		}
		id, ok := as.Lhs[resIdx].(*ast.Ident)
		if !ok {
			return true // bound to a field/index: ownership escapes immediately
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "%s result discarded: nothing can ever release it (%s)",
				calleeName(call), kind.what())
			return true
		}
		obj := defOrUse(info, id)
		if obj == nil {
			return true
		}
		a := acquisition{obj: obj, kind: kind, call: call}
		if hasErr && len(as.Lhs) > resIdx+1 {
			if errID, ok := as.Lhs[resIdx+1].(*ast.Ident); ok && errID.Name != "_" {
				a.err = defOrUse(info, errID)
			}
		}
		acqs = append(acqs, a)
		return true
	})
	if len(acqs) == 0 {
		return
	}

	for _, a := range acqs {
		checkAcquisition(pass, unit, body, a)
	}
}

func checkAcquisition(pass *Pass, unit ast.Node, body *ast.BlockStmt, a acquisition) {
	info := pass.Pkg.Info

	// Escape pass: ownership leaves this unit — returned, stored, captured
	// by a non-deferred closure, rebound, or handed to a callee that keeps
	// it. Any escape exempts the acquisition (the analyzer reasons locally
	// about local owners only, like spanhygiene).
	escapes := false
	var releasePos []token.Pos // positions of release operations (incl. deferred ones)

	useOf := func(e ast.Expr) bool { return exprUses(info, e, a.obj) }

	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				// `return f.Close()` releases; `return f` transfers ownership.
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isRelease(info, call, a) {
					releasePos = append(releasePos, call.Pos())
					continue
				}
				if useOf(r) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if !useOf(rhs) {
					continue
				}
				// Calls are judged by the CallExpr case below: a method call
				// on the resource (st, err := f.Stat()) is a use, not a
				// transfer, and argument positions go through
				// calleeTakesOwnership.
				if _, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					continue
				}
				// Re-binding to the same variable (x = acquire() again) is
				// not an escape; anything else (other var, field, slot) is.
				if i < len(st.Lhs) {
					if id, ok := st.Lhs[i].(*ast.Ident); ok && defOrUse(info, id) == a.obj {
						continue
					}
				}
				escapes = true
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				if useOf(el) {
					escapes = true
				}
			}
		case *ast.DeferStmt:
			// A registered defer runs on every exit reachable after it, so
			// the registration point is the kill; a deferred closure that
			// releases is deliberately not treated as a capture-escape.
			if deferredRelease(info, st, a) {
				releasePos = append(releasePos, st.Pos())
				return false
			}
		case *ast.GoStmt:
			if callUsesObj(info, st.Call, a.obj) || funcLitCaptures(info, st.Call.Fun, a.obj) {
				escapes = true // another goroutine owns it now
			}
		case *ast.FuncLit:
			if funcLitCaptures(info, st, a.obj) {
				escapes = true
			}
			return false
		case *ast.CallExpr:
			if isRelease(info, st, a) {
				releasePos = append(releasePos, st.Pos())
				return true
			}
			if calleeTakesOwnership(pass, st, a.obj) {
				escapes = true
			}
		}
		return true
	})
	if escapes {
		return
	}
	if len(releasePos) == 0 {
		pass.Reportf(a.call.Pos(), "%s acquired as %q but never released in this function; add defer %s",
			calleeName(a.call), a.obj.Name(), releaseHint(a))
		return
	}

	// Path analysis: from the acquisition's block, every walk to a function
	// exit must pass a block that releases (explicitly or by registering the
	// deferred release) or an error-guard return for the acquisition's own
	// error.
	g := cfg.FuncGraph(unit)
	if g == nil || len(g.Blocks) == 0 {
		return
	}
	start := g.BlockOf(a.call.Pos())
	if start == nil {
		return
	}
	kills := make(map[int]bool)
	for _, p := range releasePos {
		if b := g.BlockOf(p); b != nil {
			kills[b.Index] = true
		}
	}
	if a.err != nil {
		for _, b := range errGuardBlocks(info, body, g, a.err) {
			kills[b] = true
		}
	}
	// The acquisition's own block kills only if a release (or its own error
	// guard, which can share a block) sits after the call in source order.
	if kills[start.Index] {
		for _, p := range releasePos {
			if b := g.BlockOf(p); b != nil && b.Index == start.Index && p > a.call.Pos() {
				return
			}
		}
		delete(kills, start.Index)
	}
	// BFS over successors avoiding kill blocks; reaching an exit block
	// (no successors) means a leaky path exists.
	seen := map[int]bool{start.Index: true}
	queue := []*cfg.Block{start}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if len(b.Succs) == 0 {
			pass.Reportf(a.call.Pos(), "%s acquired as %q is not released on every path to return; add defer %s or release it on the leaking branch",
				calleeName(a.call), a.obj.Name(), releaseHint(a))
			return
		}
		for _, s := range b.Succs {
			if seen[s.Index] || kills[s.Index] {
				continue
			}
			seen[s.Index] = true
			queue = append(queue, s)
		}
	}
}

// releaseHint renders the suggested release expression for the message.
func releaseHint(a acquisition) string {
	switch a.kind {
	case resCancel:
		return a.obj.Name() + "()"
	case resBody:
		return a.obj.Name() + ".Body.Close()"
	case resAtomic:
		return a.obj.Name() + ".Abort()"
	case resStop:
		return a.obj.Name() + ".Stop()"
	default:
		return a.obj.Name() + ".Close()"
	}
}

// isRelease reports whether call releases acquisition a: the matching method
// on the tracked variable, or — for cancel funcs — calling the variable.
func isRelease(info *types.Info, call *ast.CallExpr, a acquisition) bool {
	switch a.kind {
	case resCancel:
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && defOrUse(info, id) == a.obj
	case resBody:
		// v.Body.Close()
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return false
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "Body" {
			return false
		}
		id, ok := ast.Unparen(inner.X).(*ast.Ident)
		return ok && defOrUse(info, id) == a.obj
	default:
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || defOrUse(info, id) != a.obj {
			return false
		}
		switch a.kind {
		case resStop:
			return sel.Sel.Name == "Stop"
		case resClose:
			return sel.Sel.Name == "Close"
		default:
			return sel.Sel.Name == "Commit" || sel.Sel.Name == "Abort"
		}
	}
}

// deferredRelease reports whether a defer statement releases a: either
// `defer v.Close()` directly, or `defer func() { … v.Close() … }()`.
func deferredRelease(info *types.Info, st *ast.DeferStmt, a acquisition) bool {
	if isRelease(info, st.Call, a) {
		return true
	}
	lit, ok := st.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isRelease(info, call, a) {
			found = true
		}
		return !found
	})
	return found
}

// calleeTakesOwnership decides whether passing obj as an argument transfers
// ownership. External callees (stdlib, other modules) are assumed to take
// it — flagging io.Copy(f, …) would drown the signal. Module-internal
// callees are checked through the call graph: ownership transfers only if
// the callee's body releases the parameter, stores it, or forwards it to
// something that does (bounded recursion). A module helper that merely uses
// the resource leaves the caller responsible.
func calleeTakesOwnership(pass *Pass, call *ast.CallExpr, obj types.Object) bool {
	argIdx := -1
	for i, arg := range call.Args {
		if exprUses(pass.Pkg.Info, arg, obj) {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		return false
	}
	fn := resolvedFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return true // dynamic call: assume ownership moved
	}
	a := pass.Mod.analysisFor(pass.Pkg)
	node := a.graph.NodeOf(fn)
	if node == nil {
		return true // external callee: assume ownership moved
	}
	return paramConsumed(a, node, argIdx, 0)
}

// paramConsumed reports whether fn's argIdx-th parameter is released,
// stored, or forwarded to a consuming callee within depth 3.
func paramConsumed(a *modAnalysis, node *callgraph.Node, argIdx, depth int) bool {
	decl := node.Decl
	if decl == nil || decl.Body == nil {
		return true // no body to inspect: be conservative, assume consumed
	}
	info := node.Pkg.Info
	obj := paramAt(decl, info, argIdx)
	if obj == nil {
		return true // variadic or mismatched signature: assume consumed
	}
	consumed := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if consumed {
			return false
		}
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if exprUses(info, r, obj) {
					consumed = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if exprUses(info, rhs, obj) {
					consumed = true // stored somewhere: owner changed
				}
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				if exprUses(info, el, obj) {
					consumed = true
				}
			}
		case *ast.CallExpr:
			if releasesObj(info, st, obj) {
				consumed = true
				return false
			}
			fwd := -1
			for i, arg := range st.Args {
				if exprUses(info, arg, obj) {
					fwd = i
					break
				}
			}
			if fwd < 0 {
				return true
			}
			fn := resolvedFunc(info, st)
			if fn == nil || fn.Pkg() == nil {
				consumed = true
				return false
			}
			callee := a.graph.NodeOf(fn)
			if callee == nil {
				consumed = true // external: assume consumed
				return false
			}
			if depth < 3 && paramConsumed(a, callee, fwd, depth+1) {
				consumed = true
			}
		}
		return !consumed
	})
	return consumed
}

// releasesObj reports whether call is any release-shaped operation on obj:
// Stop/Close/Commit/Abort method, obj() invocation, or obj.Body.Close().
func releasesObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, k := range []resKind{resStop, resCancel, resClose, resBody, resAtomic} {
		if isRelease(info, call, acquisition{obj: obj, kind: k}) {
			return true
		}
	}
	return false
}

// errGuardBlocks finds the blocks of `return` statements that sit inside an
// `if <cond mentioning errObj> { … }` — the conventional acquisition-failed
// exit, where no resource exists to release.
func errGuardBlocks(info *types.Info, body *ast.BlockStmt, g *cfg.Graph, errObj types.Object) []int {
	var out []int
	ast.Inspect(body, func(n ast.Node) bool {
		ifst, ok := n.(*ast.IfStmt)
		if !ok || !exprUses(info, ifst.Cond, errObj) {
			return true
		}
		ast.Inspect(ifst.Body, func(m ast.Node) bool {
			if ret, ok := m.(*ast.ReturnStmt); ok {
				if b := g.BlockOf(ret.Pos()); b != nil {
					out = append(out, b.Index)
				}
			}
			return true
		})
		return true
	})
	return out
}

// --- Start/Stop pairing ---

// checkStartStop flags Start-shaped methods that spawn a long-lived
// goroutine on a type with no joining Stop-shaped counterpart.
func checkStartStop(pass *Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || !strings.HasPrefix(fd.Name.Name, "Start") {
		return
	}
	longLived := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok && hasLoop(lit.Body) {
			longLived = true
		}
		return true
	})
	if !longLived {
		return
	}
	recv := recvNamed(pass.Pkg.Info, fd)
	if recv == nil {
		return
	}
	for i := 0; i < recv.NumMethods(); i++ {
		m := recv.Method(i)
		switch {
		case strings.HasPrefix(m.Name(), "Stop"), strings.HasPrefix(m.Name(), "Close"),
			strings.HasPrefix(m.Name(), "Shutdown"), strings.HasPrefix(m.Name(), "Drain"),
			strings.HasPrefix(m.Name(), "Wait"):
			if methodJoins(pass, m) {
				return
			}
		}
	}
	pass.Reportf(fd.Pos(), "%s.%s spawns a long-lived goroutine but the type has no Stop/Close/Shutdown method that joins it",
		recv.Obj().Name(), fd.Name.Name)
}

// methodJoins reports whether the method body contains a join-shaped
// operation: wg.Wait(), close(ch), a channel receive, or calling a func-typed
// field (a held CancelFunc).
func methodJoins(pass *Pass, m *types.Func) bool {
	a := pass.Mod.analysisFor(pass.Pkg)
	node := a.graph.NodeOf(m)
	if node == nil || node.Decl == nil || node.Decl.Body == nil {
		return false
	}
	info := node.Pkg.Info
	joins := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if joins {
			return false
		}
		switch st := n.(type) {
		case *ast.UnaryExpr:
			if st.Op == token.ARROW {
				joins = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "close" {
				joins = true
				return false
			}
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Wait" {
					joins = true
					return false
				}
				// calling a func-typed field: s.cancel()
				if t := info.TypeOf(sel); t != nil {
					if _, ok := t.Underlying().(*types.Signature); ok && len(st.Args) == 0 {
						joins = true
						return false
					}
				}
			}
		}
		return !joins
	})
	return joins
}

// --- small shared helpers ---

func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// exprUses reports whether obj's identifier appears anywhere in e.
func exprUses(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && defOrUse(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// funcLitCaptures reports whether any function literal under e references obj.
func funcLitCaptures(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return !found
		}
		if exprUses(info, lit, obj) {
			found = true
		}
		return false
	})
	return found
}

// callUsesObj reports whether obj appears in the call's arguments.
func callUsesObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, arg := range call.Args {
		if exprUses(info, arg, obj) {
			return true
		}
	}
	return false
}

// calleeName renders the called function for messages (pkg.Fn or x.M).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// paramAt resolves the object of the i-th (flattened) parameter of decl.
func paramAt(decl *ast.FuncDecl, info *types.Info, i int) types.Object {
	idx := 0
	for _, field := range decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			idx++ // unnamed parameter occupies a slot
			continue
		}
		for _, name := range names {
			if idx == i {
				return info.Defs[name]
			}
			idx++
		}
	}
	return nil
}

// hasLoop reports whether the block contains a for, range, or select
// statement — the long-lived-goroutine signal.
func hasLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt:
			found = true
		}
		return !found
	})
	return found
}

// recvNamed resolves the receiver's named type.
func recvNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
