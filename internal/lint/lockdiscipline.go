package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"wise/internal/lint/callgraph"
)

// LockDisciplineAnalyzer runs the lock-held-set dataflow (lockstate.go) over
// every function and function literal and reports the classic mutex misuse
// patterns. The missing-release case carries a machine fix when hoisting the
// unlock to a defer is provably behavior-preserving; the copied-mutex case
// carries a pointer-receiver fix.
var LockDisciplineAnalyzer = &Analyzer{
	Name:     "lockdiscipline",
	Category: "concurrency",
	Doc: "Lock() without a release on every path to return (with a hoist-to-defer " +
		"fix when safe), double-lock of a mutex already held, Unlock() of a mutex " +
		"not held on any path, defer Unlock inside a loop, mutex-bearing values " +
		"copied by value (with a pointer-receiver fix), and lock-order inversions " +
		"across the module's acquisition graph.",
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	a := pass.Mod.analysisFor(pass.Pkg)
	for _, u := range a.units[pass.Pkg] {
		checkUnitDiscipline(pass, a, u)
	}
	for _, f := range pass.Pkg.Files {
		checkMutexCopies(pass, f)
	}
	reportInversions(pass, a)
}

func checkUnitDiscipline(pass *Pass, a *modAnalysis, u *lockUnit) {
	flow := a.flowFor(pass.Pkg, u)
	if !flow.hasLocks {
		return
	}
	entry := map[string]heldLock{}
	if u.isDecl() && u.fn != nil {
		entry = a.entryHeld[u.fn]
	}

	// Missing release: a Lock site whose acquisition token survives to Exit
	// means some path returns without releasing.
	for _, id := range flow.leaked {
		op := flow.sites[id]
		fix := hoistToDeferFix(pass, flow, u, op)
		pass.ReportfFix(op.call.Pos(), fix,
			"%s.%s() is not released on every path to return; unlock on all paths or defer the unlock",
			op.key, lockMethodName(op))
	}

	flow.forEachOp(func(op lockOp, mustBefore map[string]heldLock, mayBefore map[string]bool) {
		held := mustBefore
		for k, v := range entry {
			if _, ok := held[k]; !ok {
				held[k] = v
			}
		}
		switch op.kind {
		case opLock:
			h, already := held[op.key]
			if !already {
				return
			}
			switch {
			case !op.read:
				pass.Reportf(op.call.Pos(),
					"%s.Lock() while %s is already held on every path here; double-locking a non-reentrant mutex deadlocks",
					op.key, op.key)
			case h.Write:
				pass.Reportf(op.call.Pos(),
					"%s.RLock() while the write lock is already held; sync.RWMutex is not recursive", op.key)
			}
			// RLock while read-held is legal (shared readers) — not reported.
		case opUnlock:
			if mayBefore[op.key] {
				return
			}
			if _, ok := entry[op.key]; ok {
				return
			}
			pass.Reportf(op.call.Pos(),
				"%s.%s() releases a lock that is not held on any path to this point",
				op.key, lockMethodName(op))
		case opDeferUnlock:
			if op.inLoop {
				pass.Reportf(op.call.Pos(),
					"defer %s.%s() inside a loop runs only at function return; the lock stays held across iterations — unlock explicitly or extract the body into a function",
					op.key, lockMethodName(op))
			}
		}
	})
}

// lockMethodName renders the sync method an op corresponds to.
func lockMethodName(op lockOp) string {
	switch op.kind {
	case opLock:
		if op.read {
			return "RLock"
		}
		return "Lock"
	default:
		if op.read {
			return "RUnlock"
		}
		return "Unlock"
	}
}

// hoistToDeferFix builds the "move the unlock to a defer" fix for a leaked
// Lock site, or nil when the rewrite is not provably behavior-preserving.
// The conditions are deliberately strict:
//
//   - the Lock is an ExprStmt outside any loop whose block dominates Exit
//     (every return passes it, so an unconditional defer never releases an
//     unheld mutex);
//   - it is the only Lock of that mutex in the unit, with no deferred
//     release already registered;
//   - exactly one matching non-deferred Unlock exists, it is a top-level
//     ExprStmt outside any loop, and only bare returns follow it in its
//     enclosing block — so releasing at function return instead is
//     observably the same.
func hoistToDeferFix(pass *Pass, flow *unitFlow, u *lockUnit, op lockOp) *SuggestedFix {
	lockStmt, ok := op.node.(*ast.ExprStmt)
	if !ok || ast.Unparen(lockStmt.X) != ast.Expr(op.call) {
		return nil
	}
	if flow.g.LoopDepthAt(op.call.Pos()) > 0 {
		return nil
	}
	lockBlock := flow.g.BlockOf(op.call.Pos())
	if lockBlock == nil || !flow.g.Dominates(lockBlock, flow.g.Exit) {
		return nil
	}

	var unlocks []lockOp
	for _, ops := range flow.blockOps {
		for _, o := range ops {
			if o.key != op.key || o.read != op.read {
				continue
			}
			switch o.kind {
			case opLock:
				if o.site != op.site {
					return nil // a second Lock site; hoisting would double-release
				}
			case opDeferUnlock:
				return nil // a deferred release already exists on some path
			case opUnlock:
				unlocks = append(unlocks, o)
			}
		}
	}
	if len(unlocks) != 1 {
		return nil
	}
	unlockStmt, ok := unlocks[0].node.(*ast.ExprStmt)
	if !ok || flow.g.LoopDepthAt(unlockStmt.Pos()) > 0 {
		return nil
	}
	if !onlyReturnsFollow(u.body(), unlockStmt) {
		return nil
	}

	fset := pass.Fset
	tf := fset.File(lockStmt.Pos())
	if tf == nil {
		return nil
	}
	lockPos := fset.Position(lockStmt.Pos())
	indent := strings.Repeat("\t", lockPos.Column-1)
	unlockLine := fset.Position(unlockStmt.Pos()).Line
	delStart := tf.LineStart(unlockLine)
	var delEnd token.Pos
	if unlockLine < tf.LineCount() {
		delEnd = tf.LineStart(unlockLine + 1)
	} else {
		delEnd = unlockStmt.End()
	}
	method := "Unlock"
	if op.read {
		method = "RUnlock"
	}
	return &SuggestedFix{
		Message: fmt.Sprintf("defer %s.%s() right after the %s and drop the explicit release", op.key, method, lockMethodName(op)),
		Edits: []TextEdit{
			{Pos: lockStmt.End(), End: lockStmt.End(), NewText: "\n" + indent + "defer " + op.key + "." + method + "()"},
			{Pos: delStart, End: delEnd, NewText: ""},
		},
	}
}

// onlyReturnsFollow reports whether stmt sits in a statement list where every
// following statement is a bare `return` (or there are none).
func onlyReturnsFollow(body *ast.BlockStmt, stmt ast.Stmt) bool {
	found := false
	var check func(list []ast.Stmt) bool
	check = func(list []ast.Stmt) bool {
		for i, s := range list {
			if s == stmt {
				found = true
				for _, rest := range list[i+1:] {
					r, ok := rest.(*ast.ReturnStmt)
					if !ok || len(r.Results) != 0 {
						return false
					}
				}
				return true
			}
			if b, ok := s.(*ast.BlockStmt); ok {
				if !check(b.List) {
					return false
				}
				if found {
					return true
				}
			}
		}
		return true
	}
	ok := check(body.List)
	return ok && found
}

// checkMutexCopies flags values containing a sync.Mutex/RWMutex copied by
// value: value receivers (with a pointer-receiver fix), assignments whose RHS
// is an existing value (not a fresh composite literal), and range values.
// go vet's copylocks overlaps here; this version adds the machine fix and
// runs under the same suppression/report pipeline as the rest of the suite.
func checkMutexCopies(pass *Pass, file *ast.File) {
	info := pass.Pkg.Info

	copiesLockValue := func(e ast.Expr) (types.Type, bool) {
		switch ast.Unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		default:
			return nil, false // composite literals, calls, conversions are fresh or vetted elsewhere
		}
		t := info.TypeOf(e)
		if t == nil {
			return nil, false
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return nil, false
		}
		if !callgraph.MutexBearing(t) {
			return nil, false
		}
		return t, true
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Recv == nil || len(x.Recv.List) != 1 {
				return true
			}
			rt := x.Recv.List[0].Type
			if _, isStar := rt.(*ast.StarExpr); isStar {
				return true
			}
			t := info.TypeOf(rt)
			if t == nil || !callgraph.MutexBearing(t) {
				return true
			}
			fix := &SuggestedFix{
				Message: "make the receiver a pointer so the mutex is shared",
				Edits:   []TextEdit{{Pos: rt.Pos(), End: rt.Pos(), NewText: "*"}},
			}
			pass.ReportfFix(rt.Pos(), fix,
				"method %s has a value receiver of mutex-bearing type %s; every call locks a private copy — use a pointer receiver",
				x.Name.Name, typeShortName(t))
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if len(x.Lhs) == len(x.Rhs) {
					if id, isIdent := x.Lhs[i].(*ast.Ident); isIdent && id.Name == "_" {
						continue // x = _ discards; no copy materializes
					}
				}
				if t, ok := copiesLockValue(rhs); ok {
					pass.Reportf(rhs.Pos(),
						"assignment copies a value of mutex-bearing type %s; the copy shares no lock state — use a pointer", typeShortName(t))
				}
			}
		case *ast.ValueSpec:
			for _, rhs := range x.Values {
				if t, ok := copiesLockValue(rhs); ok {
					pass.Reportf(rhs.Pos(),
						"declaration copies a value of mutex-bearing type %s; the copy shares no lock state — use a pointer", typeShortName(t))
				}
			}
		case *ast.RangeStmt:
			if x.Value == nil {
				return true
			}
			t := info.TypeOf(x.Value)
			if t == nil {
				return true
			}
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return true
			}
			if callgraph.MutexBearing(t) {
				pass.Reportf(x.Value.Pos(),
					"range copies values of mutex-bearing type %s; iterate by index or store pointers", typeShortName(t))
			}
		}
		return true
	})
}

// reportInversions surfaces lock-order inversions whose acquiring site lives
// in this package (each inversion is reported once, in the package that
// acquires against the established order).
func reportInversions(pass *Pass, a *modAnalysis) {
	for _, inv := range a.lockInversions() {
		if !posInPackage(pass, inv.pos) {
			continue
		}
		counter := pass.Fset.Position(inv.counter)
		pass.Reportf(inv.pos,
			"acquiring %s while %s is held inverts the lock order established at %s:%d (%s before %s); concurrent callers can deadlock",
			shortLockKey(pass.Mod, inv.to), shortLockKey(pass.Mod, inv.from),
			filepath.Base(counter.Filename), counter.Line,
			shortLockKey(pass.Mod, inv.to), shortLockKey(pass.Mod, inv.from))
	}
}

// typeShortName renders a type without its package path qualifier.
func typeShortName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// posInPackage reports whether pos lies in one of the package's files.
func posInPackage(pass *Pass, pos token.Pos) bool {
	name := pass.Fset.Position(pos).Filename
	for _, f := range pass.Pkg.Filenames {
		if f == name {
			return true
		}
	}
	return false
}

// shortLockKey trims the module-path prefix off a type-level lock key for
// readable messages: "wise/internal/serve.breaker.mu" -> "serve.breaker.mu".
func shortLockKey(m *Module, key string) string {
	rest, ok := strings.CutPrefix(key, m.ModPath+"/")
	if !ok {
		return key
	}
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		rest = rest[i+1:]
	}
	return rest
}
