package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The lock-order pass extracts mutex-acquisition orders across the
// lock-heavy packages (the PR-9 ordered all-shard sweep in
// internal/record, seglog.File, the obs shards) and flags any two code
// paths that acquire the same pair of locks in opposite orders — the
// classic AB/BA deadlock shape, statically.
//
// A lock is identified by the struct type that carries it plus the field
// path ("record.Log.shardMu", "seglog.Log.mu"), so every instance of a
// type shares one identity; acquiring many instances of the *same* lock
// identity (the sorted all-shard sweep) is deliberately not an edge —
// instances are indistinguishable statically, and the sweep's sort is
// exactly how that pattern is made safe. Edges are gathered
// intraprocedurally from nested Lock calls and interprocedurally from
// calls made while a lock is held: each function exports the set of
// locks it (transitively) acquires as a fact, so a caller in another
// package holding lock A that calls into a function acquiring lock B
// contributes an A→B edge without seeing the callee's source. After all
// units are visited, any edge whose reverse also exists becomes a
// finding at every site taking the conflicting order.

// lockEdge is an ordered pair of lock identities: from was held when to
// was acquired.
type lockEdge struct{ from, to string }

// lockFact is the exported per-function fact: the sorted set of lock
// identities the function acquires, directly or transitively.
type lockFact []string

// lockCall is one non-mutex call site: the resolved callee (local name
// or cross-package path+name) plus the locks held at the call.
type lockCall struct {
	local  string
	extPkg string
	extFn  string
	held   []string
	pos    token.Position
}

func lockOrderPass(pc *passCtx) []Finding {
	edges := map[lockEdge]map[string]token.Position{} // edge → "file:line:col" → pos
	addEdge := func(from, to string, pos token.Position) {
		if from == to {
			return // same identity: the ordered-sweep idiom
		}
		e := lockEdge{from, to}
		if edges[e] == nil {
			edges[e] = map[string]token.Position{}
		}
		edges[e][pos.String()] = pos
	}

	for _, u := range pc.units {
		if !pc.report(u) {
			continue
		}
		p := u.pkg
		acquires := map[string]map[string]bool{} // func key → direct lock set
		callGraph := map[string][]lockCall{}     // func key → outgoing calls
		var underLock []lockCall                 // calls made while holding locks

		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := funcKey(fd)
				if acquires[key] == nil {
					acquires[key] = map[string]bool{}
				}
				w := &lockWalker{
					u: u, acquires: acquires[key],
					addEdge: addEdge,
					call: func(c lockCall) {
						callGraph[key] = append(callGraph[key], c)
						if len(c.held) > 0 {
							underLock = append(underLock, c)
						}
					},
				}
				w.walkStmts(fd.Body.List, map[string]int{})
			}
		}

		// Transitive acquire sets: local fixpoint plus imported facts.
		for {
			changed := false
			for fn, calls := range callGraph {
				for _, c := range calls {
					var add []string
					switch {
					case c.local != "":
						for l := range acquires[c.local] {
							add = append(add, l)
						}
					case c.extPkg != "":
						if v, ok := pc.facts.Import(c.extPkg, c.extFn); ok {
							add = v.(lockFact)
						}
					}
					for _, l := range add {
						if !acquires[fn][l] {
							acquires[fn][l] = true
							changed = true
						}
					}
				}
			}
			if !changed {
				break
			}
		}
		for fn, set := range acquires {
			if len(set) == 0 {
				continue
			}
			fact := make(lockFact, 0, len(set))
			for l := range set {
				fact = append(fact, l)
			}
			sort.Strings(fact)
			pc.facts.Export(u.path, fn, fact)
		}

		// Interprocedural edges: a call made under lock H orders H
		// before everything the callee acquires.
		for _, c := range underLock {
			var callee map[string]bool
			switch {
			case c.local != "":
				callee = acquires[c.local]
			case c.extPkg != "":
				if v, ok := pc.facts.Import(c.extPkg, c.extFn); ok {
					callee = map[string]bool{}
					for _, l := range v.(lockFact) {
						callee[l] = true
					}
				}
			}
			for to := range callee {
				for _, h := range c.held {
					addEdge(h, to, c.pos)
				}
			}
		}
	}

	// Reconcile: an edge whose reverse exists is a conflicting order.
	var out []Finding
	for e, sites := range edges {
		rev, ok := edges[lockEdge{e.to, e.from}]
		if !ok {
			continue
		}
		revPos := firstPosition(rev)
		for _, pos := range sortedPositions(sites) {
			out = append(out, Finding{
				Check: CheckLockOrder, Severity: Error,
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("%s acquired while holding %s, but the opposite order is taken at %s — a deadlock under concurrency; pick one order or annotate `%s lock-order — <reason>`",
					e.to, e.from, revPos, AllowDirective),
			})
		}
	}
	return out
}

func sortedPositions(m map[string]token.Position) []token.Position {
	out := make([]token.Position, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

func firstPosition(m map[string]token.Position) string {
	ps := sortedPositions(m)
	if len(ps) == 0 {
		return "?"
	}
	return fmt.Sprintf("%s:%d:%d", ps[0].Filename, ps[0].Line, ps[0].Column)
}

// lockWalker walks one function body in statement order, tracking the
// multiset of held lock identities. Branch bodies run on a copy of the
// held set (a branch that locks and unlocks internally leaves the parent
// state untouched); deferred Unlocks keep the lock held to function
// exit, which is exactly the ordering-relevant interpretation.
type lockWalker struct {
	u        *unit
	acquires map[string]bool
	addEdge  func(from, to string, pos token.Position)
	call     func(c lockCall)
}

func (w *lockWalker) walkStmts(list []ast.Stmt, held map[string]int) {
	for _, stmt := range list {
		w.walkStmt(stmt, held)
	}
}

func cloneHeld(held map[string]int) map[string]int {
	cp := make(map[string]int, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held map[string]int) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if w.mutexOp(call, held, false) {
				return
			}
		}
		w.scanCalls(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock(): held to function exit — no state change.
		if w.isUnlock(s.Call) {
			return
		}
		w.scanCalls(s.Call, held)
	case *ast.BlockStmt:
		w.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanCalls(s.Cond, held)
		w.walkStmts(s.Body.List, cloneHeld(held))
		if s.Else != nil {
			w.walkStmt(s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanCalls(s.Cond, held)
		}
		// A lock taken inside the body is held across iterations as far
		// as ordering goes — walk the body on the live set so a Lock in
		// iteration i orders before a Lock in iteration i+1, then
		// restore (conservative: loops usually balance).
		w.walkStmts(s.Body.List, cloneHeld(held))
	case *ast.RangeStmt:
		w.scanCalls(s.X, held)
		w.walkStmts(s.Body.List, cloneHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's holds.
		w.scanCalls(s.Call, map[string]int{})
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	default:
		w.scanCalls(stmt, held)
	}
}

// mutexOp handles x.Lock()/RLock()/Unlock()/RUnlock() on a sync mutex;
// reports whether the call was one.
func (w *lockWalker) mutexOp(call *ast.CallExpr, held map[string]int, deferClose bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		key := lockKeyOf(w.u.pkg, sel.X)
		if key == "" {
			return false
		}
		pos := w.u.pkg.fset.Position(call.Pos())
		for h, n := range held {
			if n > 0 {
				w.addEdge(h, key, pos)
			}
		}
		held[key]++
		w.acquires[key] = true
		return true
	case "Unlock", "RUnlock":
		key := lockKeyOf(w.u.pkg, sel.X)
		if key == "" {
			return false
		}
		if held[key] > 0 {
			held[key]--
		}
		return true
	}
	return false
}

func (w *lockWalker) isUnlock(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock" {
		return false
	}
	return lockKeyOf(w.u.pkg, sel.X) != ""
}

// scanCalls records non-mutex calls (for the call graph and held-lock
// interprocedural edges) inside an arbitrary expression or statement.
// Function literals get a fresh empty held set: their bodies execute in
// a different dynamic context.
func (w *lockWalker) scanCalls(n ast.Node, held map[string]int) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			w.walkStmts(e.Body.List, map[string]int{})
			return false
		case *ast.CallExpr:
			if w.mutexOp(e, held, false) {
				return false
			}
			local, extPkg, extFn := resolveCallee(w.u, e)
			if local == "" && extPkg == "" {
				return true
			}
			var snapshot []string
			for h, c := range held {
				if c > 0 {
					snapshot = append(snapshot, h)
				}
			}
			sort.Strings(snapshot)
			w.call(lockCall{local, extPkg, extFn, snapshot, w.u.pkg.fset.Position(e.Pos())})
		}
		return true
	})
}

// lockKeyOf names the lock identity of a mutex expression: the named
// struct type carrying the mutex plus the field name
// ("record.Log.shardMu"), or "pkg.var" for a package-level mutex.
// Returns "" when the expression is not provably a sync.(RW)Mutex or
// the containing type cannot be resolved (locals, cross-package stubs).
func lockKeyOf(p *sourcePkg, x ast.Expr) string {
	tv, ok := p.info.Types[x]
	if !ok || !isSyncMutex(tv.Type) {
		return ""
	}
	switch e := x.(type) {
	case *ast.SelectorExpr:
		ct, ok := p.info.Types[e.X]
		if !ok || ct.Type == nil {
			return ""
		}
		t := ct.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		pkg := p.name
		if named.Obj().Pkg() != nil {
			pkg = named.Obj().Pkg().Name()
		}
		return pkg + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		obj := p.info.Uses[e]
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + e.Name
		}
	}
	return ""
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// resolveCallee classifies a call as package-local ("Fn"/"Type.Method")
// or module-internal cross-package (path, name). Anything else — stdlib,
// builtins, unresolvable — returns zeroes.
func resolveCallee(u *unit, call *ast.CallExpr) (local, extPkg, extFn string) {
	p := u.pkg
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := p.info.Uses[fun].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg() == p.typesPkg && fn.Type().(*types.Signature).Recv() == nil {
			return fn.Name(), "", ""
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := p.info.Uses[id].(*types.PkgName); ok {
				path := pn.Imported().Path()
				if u.imports[path] {
					return "", path, fun.Sel.Name
				}
				return "", "", ""
			}
		}
		if c, ok := methodCall(p, fun, token.Position{}); ok {
			return c.local, "", ""
		}
	}
	return "", "", ""
}
