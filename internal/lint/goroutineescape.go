package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"wise/internal/lint/cfg"
)

// GoroutineEscapeAnalyzer extends goroutinesafety past the enclosing
// function: a variable written inside a spawned goroutine (directly, or by a
// module function the goroutine calls that writes through a pointer
// parameter or its receiver) and written again on the spawning side AFTER
// the go statement is a data race unless a happens-before edge separates the
// two. The spawning-side scan walks the CFG forward from the go statement
// and stops at synchronization barriers (WaitGroup.Wait, any channel
// operation, select, or a call into a module function that may block);
// writes on both sides under a common held lock, and index-disjoint slice
// writes partitioned by a goroutine-local index, are exempt.
var GoroutineEscapeAnalyzer = &Analyzer{
	Name:     "goroutineescape",
	Category: "concurrency",
	Doc: "A value written inside a spawned goroutine and written again by the " +
		"spawner after the go statement, with no synchronization barrier between " +
		"the go and the later write, races. Interprocedural: writes made by " +
		"module functions the goroutine calls (pointer parameters, receivers) " +
		"count as goroutine-side writes.",
	Run: runGoroutineEscape,
}

func runGoroutineEscape(pass *Pass) {
	a := pass.Mod.analysisFor(pass.Pkg)
	for _, u := range a.units[pass.Pkg] {
		var goStmts []*ast.GoStmt
		walkUnitDirect(u, func(n ast.Node) {
			if gs, ok := n.(*ast.GoStmt); ok {
				goStmts = append(goStmts, gs)
			}
		})
		for _, gs := range goStmts {
			checkGoroutineEscape(pass, a, u, gs)
		}
	}
}

// goSideWrite is one write performed on the goroutine side of a go statement.
type goSideWrite struct {
	pos        token.Pos
	indexLocal bool // write through an index local to the goroutine (partitioned)
}

func checkGoroutineEscape(pass *Pass, a *modAnalysis, u *lockUnit, gs *ast.GoStmt) {
	info := pass.Pkg.Info
	targets := goroutineWrites(a, info, gs)
	if len(targets) == 0 {
		return
	}
	flow := a.flowFor(pass.Pkg, u)
	goPos := pass.Fset.Position(gs.Pos())

	// Lock keys held at the goroutine-side writes (frame-local; a captured
	// mutex renders to the same path in both frames) plus the type-level
	// closure of everything a spawned call may acquire.
	goHeld := goroutineHeldKeys(a, pass.Pkg, gs, targets)

	for _, w := range outerWritesAfterGo(a, flow.g, info, gs, targets) {
		gw := targets[w.obj]
		if gw.indexLocal && w.indexWrite {
			continue // partitioned by goroutine-local index on both sides
		}
		outerHeld := a.heldAt(pass.Pkg, u, w.pos)
		common := false
		for k := range outerHeld {
			if goHeld[k] {
				common = true
				break
			}
		}
		for _, h := range outerHeld {
			if h.TypeKey != "" && goHeld[h.TypeKey] {
				common = true
				break
			}
		}
		if common {
			continue
		}
		pass.Reportf(w.pos,
			"%s is written here and inside the goroutine started at %s:%d, with no synchronization barrier between the go statement and this write; the writes race",
			w.obj.Name(), filepath.Base(goPos.Filename), goPos.Line)
	}
}

// goroutineWrites collects the outer-declared variables the spawned goroutine
// writes: direct assignments in a go'd function literal (at any nesting
// depth), plus pointer-parameter/receiver writes of module functions the
// goroutine invokes (via callgraph summaries).
func goroutineWrites(a *modAnalysis, info *types.Info, gs *ast.GoStmt) map[*types.Var]goSideWrite {
	out := make(map[*types.Var]goSideWrite)
	record := func(obj *types.Var, w goSideWrite) {
		if prev, ok := out[obj]; ok {
			w.indexLocal = w.indexLocal && prev.indexLocal
		}
		out[obj] = w
	}

	summaryWrites := func(call *ast.CallExpr, outerOf func(types.Object) bool) {
		fn := resolvedFunc(info, call)
		if fn == nil {
			return
		}
		n := a.graph.NodeOf(fn)
		if n == nil {
			return
		}
		for _, i := range n.Summary.WritesParams {
			if i >= len(call.Args) {
				continue
			}
			if obj := rootVar(info, call.Args[i]); obj != nil && outerOf(obj) {
				record(obj, goSideWrite{pos: call.Pos()})
			}
		}
		if n.Summary.WritesRecv {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if obj := rootVar(info, sel.X); obj != nil && outerOf(obj) {
					record(obj, goSideWrite{pos: call.Pos()})
				}
			}
		}
	}

	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		outerOf := func(obj types.Object) bool {
			return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
		}
		localTo := func(obj types.Object) bool { return !outerOf(obj) }
		markWrite := func(lhs ast.Expr) {
			indexLocal := false
			e := lhs
		peel:
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.SelectorExpr:
					e = x.X
				case *ast.IndexExpr:
					if indexIsLocal(info, x.Index, localTo) {
						indexLocal = true
					}
					e = x.X
				default:
					break peel
				}
			}
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				return
			}
			obj, ok := info.Uses[id].(*types.Var)
			if !ok || !outerOf(obj) {
				return
			}
			record(obj, goSideWrite{pos: lhs.Pos(), indexLocal: indexLocal})
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					markWrite(lhs)
				}
			case *ast.IncDecStmt:
				markWrite(x.X)
			case *ast.CallExpr:
				summaryWrites(x, outerOf)
			}
			return true
		})
		return out
	}

	// go f(args) / go recv.m(args): every argument and the receiver are in
	// the spawner's frame.
	summaryWrites(gs.Call, func(types.Object) bool { return true })
	return out
}

// goroutineHeldKeys approximates the locks protecting the goroutine-side
// writes: for a go'd literal, the must-held set of the literal's own unit at
// each write (frame-local keys — a captured mutex renders identically in
// both frames); for any spawned call, the type-level closure of the locks it
// may acquire.
func goroutineHeldKeys(a *modAnalysis, pkg *Package, gs *ast.GoStmt, targets map[*types.Var]goSideWrite) map[string]bool {
	keys := make(map[string]bool)
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		var litUnit *lockUnit
		for _, u := range a.units[pkg] {
			if u.lit == lit {
				litUnit = u
				break
			}
		}
		if litUnit != nil {
			flow := a.flowFor(pkg, litUnit)
			for _, w := range targets {
				held := flow.heldAtLocal(w.pos)
				if len(held) == 0 {
					return map[string]bool{} // one unguarded write defeats the exemption
				}
				for k, h := range held {
					keys[k] = true
					if h.TypeKey != "" {
						keys[h.TypeKey] = true
					}
				}
			}
			return keys
		}
	}
	if fn := resolvedFunc(pkg.Info, gs.Call); fn != nil {
		if n := a.graph.NodeOf(fn); n != nil {
			for _, k := range a.graph.AcquiresClosure(n) {
				keys[k] = true
			}
		}
	}
	return keys
}

// outerWrite is one spawner-side write reachable from the go statement.
type outerWrite struct {
	obj        *types.Var
	pos        token.Pos
	indexWrite bool
}

// outerWritesAfterGo walks the CFG forward from the go statement collecting
// writes to the target variables, stopping each path at the first
// synchronization barrier. The go statement's own block is scanned from the
// statement onward; if a loop brings control back to it, it is rescanned in
// full (a write before the go races with the previous iteration's goroutine).
func outerWritesAfterGo(a *modAnalysis, g *cfg.Graph, info *types.Info, gs *ast.GoStmt, targets map[*types.Var]goSideWrite) []outerWrite {
	start := g.BlockOf(gs.Pos())
	if start == nil {
		return nil
	}
	var out []outerWrite
	type writeKey struct {
		obj *types.Var
		pos token.Pos
	}
	seen := make(map[writeKey]bool)

	type ev struct {
		pos     token.Pos
		barrier bool
		write   *outerWrite
	}
	nodeEvents := func(node ast.Node) []ev {
		var evs []ev
		addWrite := func(lhs ast.Expr) {
			indexWrite := false
			e := lhs
		peel:
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.SelectorExpr:
					e = x.X
				case *ast.IndexExpr:
					indexWrite = true
					e = x.X
				default:
					break peel
				}
			}
			id, ok := e.(*ast.Ident)
			if !ok {
				return
			}
			obj, ok := info.Uses[id].(*types.Var)
			if !ok {
				return
			}
			if _, tracked := targets[obj]; tracked {
				evs = append(evs, ev{pos: lhs.Pos(), write: &outerWrite{obj: obj, pos: lhs.Pos(), indexWrite: indexWrite}})
			}
		}
		// A RangeStmt head node carries the whole statement; its body has its
		// own blocks. Only the range expression and loop-variable binding
		// execute in the head — a range over a channel is itself a barrier.
		if rs, ok := node.(*ast.RangeStmt); ok {
			if t := info.TypeOf(rs.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					return []ev{{pos: rs.Pos(), barrier: true}}
				}
			}
			if rs.Key != nil {
				addWrite(rs.Key)
			}
			if rs.Value != nil {
				addWrite(rs.Value)
			}
			return evs
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				if x == gs {
					return false // the spawn itself is not on the outer path
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					evs = append(evs, ev{pos: x.Pos(), barrier: true})
				}
			case *ast.SendStmt:
				evs = append(evs, ev{pos: x.Pos(), barrier: true})
			case *ast.SelectStmt:
				evs = append(evs, ev{pos: x.Pos(), barrier: true})
				return false
			case *ast.CallExpr:
				if isWaitCall(info, x) || callMayBlock(a, info, x) {
					evs = append(evs, ev{pos: x.Pos(), barrier: true})
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					addWrite(lhs)
				}
			case *ast.IncDecStmt:
				addWrite(x.X)
			}
			return true
		})
		return evs
	}

	// scanBlock returns false when a barrier stops the path.
	scanBlock := func(b *cfg.Block, from token.Pos) bool {
		for _, node := range b.Nodes {
			if node.End() <= from {
				continue
			}
			evs := nodeEvents(node)
			for i := 1; i < len(evs); i++ { // events come pre-order; order by position
				for j := i; j > 0 && evs[j].pos < evs[j-1].pos; j-- {
					evs[j], evs[j-1] = evs[j-1], evs[j]
				}
			}
			for _, e := range evs {
				if e.pos < from {
					continue
				}
				if e.barrier {
					return false
				}
				key := writeKey{e.write.obj, e.write.pos}
				if !seen[key] {
					seen[key] = true
					out = append(out, *e.write)
				}
			}
		}
		return true
	}

	type qe struct {
		b    *cfg.Block
		from token.Pos
	}
	visitedFull := make(map[*cfg.Block]bool)
	queue := []qe{{b: start, from: gs.Pos()}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.from == token.NoPos {
			if visitedFull[cur.b] {
				continue
			}
			visitedFull[cur.b] = true
		}
		if !scanBlock(cur.b, cur.from) {
			continue
		}
		for _, s := range cur.b.Succs {
			if !visitedFull[s] {
				queue = append(queue, qe{b: s, from: token.NoPos})
			}
		}
	}
	return out
}

// isWaitCall matches sync.WaitGroup.Wait and sync.Cond.Wait.
func isWaitCall(info *types.Info, call *ast.CallExpr) bool {
	fn := resolvedFunc(info, call)
	if fn == nil || fn.Name() != "Wait" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	return true
}

// callMayBlock reports whether a call statically resolves to a module
// function whose synchronous closure contains a blocking operation.
func callMayBlock(a *modAnalysis, info *types.Info, call *ast.CallExpr) bool {
	fn := resolvedFunc(info, call)
	if fn == nil {
		return false
	}
	n := a.graph.NodeOf(fn)
	return n != nil && n.MayBlock
}

// rootVar peels &, *, parens, selectors and indexing off an expression and
// returns the root variable, or nil.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}
