// Package lockhold forbids blocking work inside mutex critical
// sections: no file I/O, fsync, HTTP traffic, sleeps or blocking
// channel operations while a sync.Mutex or sync.RWMutex is held.
//
// A lock held across I/O turns one slow disk or peer into a pile-up:
// every other goroutine needing the lock stalls behind a syscall the
// holder cannot bound. The fleet made this interprocedural — a
// router handler that calls a helper that calls a Client RPC holds its
// lock across the network without a single blocking call in sight —
// so the check rides the facts framework: a call is blocking if the
// callee's interprocedural MayBlock fact says so, no matter how many
// packages down the actual syscall lives.
//
// Within the region between x.Lock()/x.RLock() and the matching
// unlock (or the rest of the enclosing block when the unlock is
// deferred), a finding is:
//
//   - a call to any function whose facts say MayBlock (file I/O,
//     fsync, HTTP, network, sleep, subprocess wait) — directly or
//     transitively;
//   - a syntactic blocking channel operation: a send, a receive, a
//     range over a channel, or a select with no default clause.
//     Channel facts are deliberately not propagated through calls: a
//     callee using channels for bounded internal parallelism (the
//     core build under cluster's worker lock) does not block the
//     caller indefinitely, and propagating would drown the analyzer
//     in false positives (DESIGN.md decision 14).
//
// Deliberate exceptions are declared, not silent: a
// `//lint:ignore lockhold reason` directive on the Lock statement — or
// on the mutex's own declaration, exempting every region of that lock —
// suppresses the region. internal/server's logMu is the canonical
// case: the journal-then-queue ordering under logMu IS the durability
// design, and its declaration carries the directive and the argument.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"alex/internal/analysis"
)

// Analyzer is the lockhold checker. It applies module-wide: a lock
// held across I/O is a latency and deadlock hazard in any package.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "flags blocking I/O and channel waits while holding a mutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if block, ok := n.(*ast.BlockStmt); ok {
				scanBlock(pass, block)
			}
			return true
		})
	}
	return nil
}

// scanBlock finds Lock/RLock statements among block's direct children
// and checks each one's critical section. Nested blocks are reached by
// run's outer inspection.
func scanBlock(pass *analysis.Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		lockExpr, rlock, ok := lockStmt(pass, stmt)
		if !ok {
			continue
		}
		if exempted(pass, stmt, lockExpr) {
			continue
		}
		unlockName := "Unlock"
		if rlock {
			unlockName = "RUnlock"
		}
		lockStr := types.ExprString(lockExpr)

		// Region: statements after the Lock until a same-receiver
		// unlock among the siblings; a deferred unlock extends the
		// region to the end of the block and puts deferred statements
		// back in scope (LIFO: they run before the unlock).
		deferUnlock := false
		end := len(block.List)
		for j := i + 1; j < len(block.List); j++ {
			switch s := block.List[j].(type) {
			case *ast.DeferStmt:
				if isUnlockCall(pass, s.Call, lockStr, unlockName) {
					deferUnlock = true
				}
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok && isUnlockCall(pass, call, lockStr, unlockName) {
					end = j
				}
			}
			if end != len(block.List) {
				break
			}
		}
		region := block.List[i+1 : end]
		scanRegion(pass, region, lockStr, unlockName, deferUnlock)
	}
}

// scanRegion reports blocking operations between a Lock and its
// unlock. The scan is source-ordered and stops at the first
// same-receiver unlock it meets anywhere (e.g. inside an early-return
// branch): code after a conditional unlock may or may not hold the
// lock, and silence beats a false positive in a merge gate.
func scanRegion(pass *analysis.Pass, region []ast.Stmt, lockStr, unlockName string, deferUnlock bool) {
	stopped := false
	for _, stmt := range region {
		if stopped {
			return
		}
		if d, ok := stmt.(*ast.DeferStmt); ok {
			if !deferUnlock {
				// With an explicit unlock the deferred call runs after it.
				continue
			}
			if isUnlockCall(pass, d.Call, lockStr, unlockName) {
				// The region-extending `defer x.Unlock()` itself: it runs
				// at return, not here — don't let it end the scan.
				continue
			}
		}
		// Channel operations that a select statement makes non-blocking
		// (any comm clause of a select WITH default).
		nonblocking := map[ast.Node]bool{}

		ast.Inspect(stmt, func(n ast.Node) bool {
			if stopped || n == nil {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // runs later (or never); its own locks are scanned separately
			case *ast.GoStmt:
				return false // launching never blocks; the goroutine runs unlocked... on its own stack
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				// Either way the comm ops themselves are not re-reported:
				// with a default they never block, without one the select
				// diagnostic already covers them.
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						markCommOps(cc.Comm, nonblocking)
					}
				}
				if !hasDefault {
					pass.Reportf(n.Pos(), "blocking select while holding %s; a stalled channel peer stalls every goroutine waiting on the lock", lockStr)
				}
			case *ast.SendStmt:
				if !nonblocking[n] {
					pass.Reportf(n.Pos(), "channel send while holding %s may block; release the lock before communicating", lockStr)
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !nonblocking[n] {
					pass.Reportf(n.Pos(), "channel receive while holding %s may block; release the lock before communicating", lockStr)
				}
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "ranging over a channel while holding %s blocks until the channel closes", lockStr)
					}
				}
			case *ast.CallExpr:
				if isUnlockCall(pass, n, lockStr, unlockName) {
					stopped = true
					return false
				}
				fn, facts := pass.CallFacts(n)
				if fn != nil && facts.MayBlock {
					via := ""
					if facts.BlockVia != "" {
						via = " via " + facts.BlockVia
					}
					pass.Reportf(n.Pos(), "call to %s may block (%s%s) while holding %s; shrink the critical section or move the I/O out", analysis.FuncKey(fn), facts.BlockReason, via, lockStr)
				}
			}
			return true
		})
	}
}

// markCommOps records the channel operations of one select comm
// statement as non-blocking (their select has a default clause).
func markCommOps(comm ast.Stmt, set map[ast.Node]bool) {
	ast.Inspect(comm, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.SendStmt, *ast.UnaryExpr:
			set[n] = true
		}
		return true
	})
}

// lockStmt matches `x.Lock()` / `x.RLock()` expression statements where
// x is a sync.Mutex or sync.RWMutex (including promoted embeds),
// returning the receiver expression.
func lockStmt(pass *analysis.Pass, stmt ast.Stmt) (recv ast.Expr, rlock bool, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return nil, false, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return nil, false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" {
		return nil, false, false
	}
	if !isSyncLockMethod(pass, sel.Sel) {
		return nil, false, false
	}
	return sel.X, name == "RLock", true
}

func isUnlockCall(pass *analysis.Pass, call *ast.CallExpr, lockStr, unlockName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != unlockName {
		return false
	}
	return isSyncLockMethod(pass, sel.Sel) && types.ExprString(sel.X) == lockStr
}

// isSyncLockMethod reports whether id resolves to a method of
// sync.Mutex or sync.RWMutex.
func isSyncLockMethod(pass *analysis.Pass, id *ast.Ident) bool {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return (obj.Name() == "Mutex" || obj.Name() == "RWMutex") &&
		obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// exempted honors `//lint:ignore lockhold reason` on the Lock statement
// itself or at the mutex's declaration — one directive at the field
// declaration documents every critical section of that lock.
func exempted(pass *analysis.Pass, lockStmt ast.Stmt, recv ast.Expr) bool {
	if pass.IgnoredAt(lockStmt.Pos(), "lockhold") {
		return true
	}
	var id *ast.Ident
	switch e := ast.Unparen(recv).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && pass.IgnoredAt(obj.Pos(), "lockhold")
}
