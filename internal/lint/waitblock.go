package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"wise/internal/lint/callgraph"
)

// WaitBlockAnalyzer flags blocking operations performed while a mutex is
// held — wg.Wait, bare channel sends/receives, selects without a default,
// ranging over a channel, and calls into module functions whose synchronous
// closure blocks (via the callgraph's MayBlock bit). A goroutine parked on
// one of these keeps the lock held, stalling every other locker; combined
// with a goroutine that needs the same lock to make progress, it deadlocks.
// It also reports WaitGroup.Add performed inside a spawned goroutine through
// a module call — interprocedurally extending goroutinesafety's direct
// check — because an Add racing its Wait makes Wait return early.
var WaitBlockAnalyzer = &Analyzer{
	Name:     "waitblock",
	Category: "concurrency",
	Doc: "No blocking operation (wg.Wait, channel send/receive, select without " +
		"default, range over a channel, or a call into a module function that may " +
		"block) while holding a lock; no WaitGroup.Add inside the spawned " +
		"goroutine, even through a module call. sync.Cond.Wait is exempt — it " +
		"releases the lock while parked.",
	Run: runWaitBlock,
}

func runWaitBlock(pass *Pass) {
	a := pass.Mod.analysisFor(pass.Pkg)
	for _, u := range a.units[pass.Pkg] {
		checkBlockingWhileHeld(pass, a, u)
		var goStmts []*ast.GoStmt
		walkUnitDirect(u, func(n ast.Node) {
			if gs, ok := n.(*ast.GoStmt); ok {
				goStmts = append(goStmts, gs)
			}
		})
		for _, gs := range goStmts {
			checkInterprocWGAdd(pass, a, gs)
		}
	}
}

// blockingEvent is one potentially-parking operation directly in a unit.
// heldPos is where the lock state is sampled — for a select that is the
// first communication clause (the select keyword itself maps to no CFG
// node), for everything else the operation itself.
type blockingEvent struct {
	pos     token.Pos
	heldPos token.Pos
	desc    string
}

func checkBlockingWhileHeld(pass *Pass, a *modAnalysis, u *lockUnit) {
	info := pass.Pkg.Info
	var events []blockingEvent
	comms := selectCommNodes(u.body())

	ast.Inspect(u.body(), func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if x != u.lit {
				return false // separate unit
			}
		case *ast.GoStmt:
			return false // the spawn does not block the spawner; wg.Add handled separately
		case *ast.DeferStmt:
			return false // runs at return, against the then-current lock state
		case *ast.SelectStmt:
			if !selectHasDefaultClause(x) {
				heldPos := x.Pos()
				for _, clause := range x.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						heldPos = cc.Comm.Pos()
						break
					}
				}
				events = append(events, blockingEvent{x.Pos(), heldPos, "select with no default case"})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !comms[x] {
				events = append(events, blockingEvent{x.Pos(), x.Pos(), "channel receive"})
			}
		case *ast.SendStmt:
			if !comms[x] {
				events = append(events, blockingEvent{x.Pos(), x.Pos(), "channel send"})
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					events = append(events, blockingEvent{x.Pos(), x.Pos(), "range over a channel"})
				}
			}
		case *ast.CallExpr:
			if desc, ok := blockingCallDesc(a, info, x); ok {
				events = append(events, blockingEvent{x.Pos(), x.Pos(), desc})
			}
		}
		return true
	})

	for _, e := range events {
		held := a.heldAt(pass.Pkg, u, e.heldPos)
		if len(held) == 0 {
			continue
		}
		pass.Reportf(e.pos,
			"%s while holding %s; a parked goroutine keeps the lock held and can deadlock everything contending for it",
			e.desc, strings.Join(sortedHeldKeys(held), ", "))
	}
}

// blockingCallDesc classifies a call as blocking: WaitGroup.Wait directly, or
// a static call to a module function whose synchronous closure blocks.
// sync.Cond.Wait is exempt (it releases the lock while parked).
func blockingCallDesc(a *modAnalysis, info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := resolvedFunc(info, call)
	if fn == nil {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
		if receiverNamed(fn) == "WaitGroup" {
			name := "WaitGroup.Wait"
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if p := callgraph.RenderPath(sel.X); p != "" {
					name = p + ".Wait()"
				}
			}
			return name, true
		}
		return "", false // Cond.Wait releases the lock
	}
	n := a.graph.NodeOf(fn)
	if n != nil && n.MayBlock {
		return "call to " + fn.Name() + ", which may block", true
	}
	return "", false
}

// checkInterprocWGAdd reports WaitGroup.Add calls that execute inside the
// spawned goroutine through a module function: `go addAndWork(&wg)` or a go'd
// literal calling such a function. The direct in-literal wg.Add case is
// goroutinesafety's.
func checkInterprocWGAdd(pass *Pass, a *modAnalysis, gs *ast.GoStmt) {
	info := pass.Pkg.Info
	reportAddVia := func(pos token.Pos, call *ast.CallExpr, fn *types.Func, argIdx int) {
		arg := "the WaitGroup"
		if argIdx < len(call.Args) {
			if p := callgraph.RenderPath(ast.Unparen(peelAddr(call.Args[argIdx]))); p != "" {
				arg = p
			}
		}
		pass.Reportf(pos,
			"%s.Add runs inside the spawned goroutine (via %s) and can execute after Wait returns; call Add before the go statement",
			arg, fn.Name())
	}

	checkCall := func(call *ast.CallExpr, outerOf func(types.Object) bool) {
		fn := resolvedFunc(info, call)
		if fn == nil {
			return
		}
		n := a.graph.NodeOf(fn)
		if n == nil {
			return
		}
		for _, i := range n.Summary.WGAddParams {
			if i >= len(call.Args) {
				continue
			}
			if obj := rootVar(info, call.Args[i]); obj != nil && outerOf(obj) {
				reportAddVia(call.Pos(), call, fn, i)
			}
		}
	}

	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		outerOf := func(obj types.Object) bool {
			return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(call, outerOf)
			}
			return true
		})
		return
	}
	checkCall(gs.Call, func(types.Object) bool { return true })
}

// peelAddr strips a leading & so RenderPath sees the operand.
func peelAddr(e ast.Expr) ast.Expr {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// selectCommNodes marks the communication operations that belong to a select
// clause: they do not block on their own — the select as a whole does.
func selectCommNodes(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch c := cc.Comm.(type) {
			case *ast.SendStmt:
				out[c] = true
			case *ast.ExprStmt:
				out[ast.Unparen(c.X)] = true
			case *ast.AssignStmt:
				for _, rhs := range c.Rhs {
					out[ast.Unparen(rhs)] = true
				}
			}
		}
		return true
	})
	return out
}

// selectHasDefaultClause reports whether a select has a default case.
func selectHasDefaultClause(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
