package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// The determinism pass: the wallclock check (direct wall-clock reads in
// virtual-clock packages) plus determinism-taint, its interprocedural
// closure. A function that — directly or through any chain of calls,
// including calls into other packages — reaches time.Now (or any other
// deny-listed wall-clock read) or an unseeded package-level math/rand
// function is *tainted*; calling a tainted function from a deterministic
// output path (cfg.TaintDirs) is flagged at the call site with the
// witness chain, so the leak is pinned where it enters the deterministic
// world rather than where the clock is read.
//
// Taint facts cross package boundaries through the driver's fact store:
// when internal/kernel exports "Stamp → time.Now", a call to
// kernel.Stamp inside internal/migration is flagged without migration
// ever seeing kernel's source. Packages outside VirtualClockDirs (obs,
// apps) use the wall clock by design and neither produce sources nor
// propagate taint. An allow-annotated source site
// (`//fluxvet:allow wallclock` / `determinism-taint`) is declared
// intentional — telemetry that never feeds the virtual clock — and does
// not taint its callers.

// wallClockDeny lists the time package selectors that read or depend on
// the wall clock. Pure types/constructors (time.Duration, time.Unix,
// time.Date, time.UnixMilli) are fine.
var wallClockDeny = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randDeny lists math/rand's package-level functions, which draw from
// the globally (and since Go 1.20, randomly) seeded source. A local
// rand.New(rand.NewSource(seed)) is deterministic and fine.
var randDeny = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// taintCall is one call site inside a function: either a direct
// nondeterminism source, a call to a package-local function/method, or a
// call into another module-internal package.
type taintCall struct {
	pos    token.Position
	source string // "time.Now", "math/rand.Intn", ... when a direct source
	// allowed marks a source covered by an allow directive: the finding
	// is still emitted (the driver suppresses it and marks the directive
	// used) but the site is declared intentional and does not taint.
	allowed bool
	local   string // package-local callee key ("Fn" or "Type.Method")
	extPkg  string // module-internal import path of an external callee
	extFn   string // external callee name
}

// taintFact is the exported per-function fact: the witness chain from
// the function to the nondeterminism source it reaches.
type taintFact string

func determinismPass(pc *passCtx) []Finding {
	wallDirs := map[string]bool{}
	for _, d := range pc.cfg.VirtualClockDirs {
		wallDirs[d] = true
	}
	taintDirs := map[string]bool{}
	for _, d := range pc.cfg.TaintDirs {
		taintDirs[d] = true
	}

	var out []Finding
	for _, u := range pc.units {
		if !wallDirs[u.dir] && !taintDirs[u.dir] {
			continue // obs/apps: wall clock by design, never taints
		}
		calls := collectTaintCalls(u)

		// Direct wallclock findings (virtual-clock discipline).
		if wallDirs[u.dir] {
			for _, cs := range calls {
				for _, c := range cs {
					if strings.HasPrefix(c.source, "time.") {
						out = append(out, Finding{
							Check: CheckWallClock, Severity: Error,
							File: c.pos.Filename, Line: c.pos.Line, Col: c.pos.Column,
							Message: fmt.Sprintf("%s in a virtual-clock package: route through kernel.Clock or annotate `%s wallclock — <reason>`",
								c.source, AllowDirective),
						})
					}
				}
			}
		}

		// Local fixpoint over the call graph, seeded by direct sources
		// and by imported cross-package facts.
		tainted := map[string]string{} // func key → witness chain
		for {
			changed := false
			for fn, cs := range calls {
				if _, done := tainted[fn]; done {
					continue
				}
				for _, c := range cs {
					w := c.witness(pc, tainted)
					if w != "" {
						tainted[fn] = w
						changed = true
						break
					}
				}
			}
			if !changed {
				break
			}
		}
		for fn, w := range tainted {
			pc.facts.Export(u.path, fn, taintFact(w))
		}

		// Taint findings: every call to a tainted function inside a
		// deterministic output path, plus direct unseeded-rand reads
		// (direct time reads are already wallclock findings).
		if !taintDirs[u.dir] {
			continue
		}
		for _, cs := range calls {
			for _, c := range cs {
				switch {
				case strings.HasPrefix(c.source, "math/rand."):
					out = append(out, Finding{
						Check: CheckDeterminismTaint, Severity: Error,
						File: c.pos.Filename, Line: c.pos.Line, Col: c.pos.Column,
						Message: fmt.Sprintf("%s draws from the unseeded global source in a deterministic path: use a seeded *rand.Rand, or annotate `%s determinism-taint — <reason>`",
							c.source, AllowDirective),
					})
				case c.source != "":
					// Direct time source: the wallclock finding covers it.
				case c.local != "":
					if w, ok := tainted[c.local]; ok {
						out = append(out, taintFinding(c, c.local, w))
					}
				case c.extPkg != "":
					if w, ok := pc.facts.Import(c.extPkg, c.extFn); ok {
						callee := c.extPkg[strings.LastIndex(c.extPkg, "/")+1:] + "." + c.extFn
						out = append(out, taintFinding(c, callee, string(w.(taintFact))))
					}
				}
			}
		}
	}
	return out
}

func taintFinding(c taintCall, callee, witness string) Finding {
	return Finding{
		Check: CheckDeterminismTaint, Severity: Error,
		File: c.pos.Filename, Line: c.pos.Line, Col: c.pos.Column,
		Message: fmt.Sprintf("call to %s leaks nondeterminism into a deterministic path (%s → %s): route through kernel.Clock / a seeded source, or annotate `%s determinism-taint — <reason>`",
			callee, callee, witness, AllowDirective),
	}
}

// witness resolves the call to a taint chain, or "" when clean. Chains
// are capped so mutually recursive helpers stay readable.
func (c taintCall) witness(pc *passCtx, tainted map[string]string) string {
	const maxChain = 160
	switch {
	case c.source != "":
		if c.allowed {
			return ""
		}
		return c.source
	case c.local != "":
		if w, ok := tainted[c.local]; ok {
			if len(w) > maxChain {
				w = w[:maxChain] + "…"
			}
			return c.local + " → " + w
		}
	case c.extPkg != "":
		if w, ok := pc.facts.Import(c.extPkg, c.extFn); ok {
			s := string(w.(taintFact))
			if len(s) > maxChain {
				s = s[:maxChain] + "…"
			}
			return c.extPkg[strings.LastIndex(c.extPkg, "/")+1:] + "." + c.extFn + " → " + s
		}
	}
	return ""
}

// collectTaintCalls builds the per-function call lists of one unit.
func collectTaintCalls(u *unit) map[string][]taintCall {
	p := u.pkg
	out := map[string][]taintCall{}
	for _, f := range p.files {
		// Fallback import-alias table for files whose type info is
		// incomplete: maps local name → import path for time/math-rand.
		aliases := map[string]string{}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if path != "time" && path != "math/rand" {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if name != "_" && name != "." {
				aliases[name] = path
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				key := funcKey(d)
				out[key] = append(out[key], taintCallsIn(u, d.Body, aliases)...)
			case *ast.GenDecl:
				// Package-level var initializers run at init time; a
				// wall-clock read there leaks just the same. Nothing
				// calls the pseudo-key, so it cannot taint.
				if d.Tok == token.VAR {
					out["(package)"] = append(out["(package)"], taintCallsIn(u, d, aliases)...)
				}
			}
		}
	}
	return out
}

// funcKey names a FuncDecl: "Fn" for package-level functions,
// "Type.Method" for methods.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		default:
			if id, ok := t.(*ast.Ident); ok {
				return id.Name + "." + fd.Name.Name
			}
			return fd.Name.Name
		}
	}
}

// taintCallsIn classifies every call expression in a body.
func taintCallsIn(u *unit, body ast.Node, aliases map[string]string) []taintCall {
	p := u.pkg
	var out []taintCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pos := p.fset.Position(call.Pos())
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			// Package-local function call.
			if fn, ok := p.info.Uses[fun].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg() == p.typesPkg && fn.Type().(*types.Signature).Recv() == nil {
				out = append(out, taintCall{pos: pos, local: fn.Name()})
			}
		case *ast.SelectorExpr:
			id, ok := fun.X.(*ast.Ident)
			if !ok {
				// Chained selector (a.b.M()): resolve as a method call.
				if c, ok := methodCall(p, fun, pos); ok {
					out = append(out, c)
				}
				return true
			}
			obj, resolved := p.info.Uses[id]
			if pn, ok := obj.(*types.PkgName); ok {
				path := pn.Imported().Path()
				out = append(out, classifyPkgCall(u, path, fun.Sel.Name, pos)...)
				return true
			}
			if !resolved {
				// Type info incomplete: fall back to the import-alias
				// table so a bare `time.Now()` never slips through.
				if path, ok := aliases[id.Name]; ok {
					out = append(out, classifyPkgCall(u, path, fun.Sel.Name, pos)...)
					return true
				}
			}
			// A value selector: method call on a local variable.
			if c, ok := methodCall(p, fun, pos); ok {
				out = append(out, c)
			}
		}
		return true
	})
	// Mark allow-annotated sources: they still produce a finding (the
	// driver suppresses it and marks the directive used) but are
	// declared intentional and must not taint callers.
	for i, c := range out {
		if c.source == "" {
			continue
		}
		check := CheckWallClock
		if strings.HasPrefix(c.source, "math/rand.") {
			check = CheckDeterminismTaint
		}
		out[i].allowed = p.isAllowed(c.pos, check)
	}
	return out
}

// classifyPkgCall resolves a pkg.Fn call: a nondeterminism source, a
// module-internal callee, or nothing interesting.
func classifyPkgCall(u *unit, path, name string, pos token.Position) []taintCall {
	switch {
	case path == "time" && wallClockDeny[name]:
		return []taintCall{{pos: pos, source: "time." + name}}
	case path == "math/rand" && randDeny[name]:
		return []taintCall{{pos: pos, source: "math/rand." + name}}
	case u.imports[path]:
		return []taintCall{{pos: pos, extPkg: path, extFn: name}}
	}
	return nil
}

// methodCall resolves x.M() to a package-local method key when the
// receiver's named type is declared in this package. Cross-package
// method calls degrade to a miss (stub types carry no methods).
func methodCall(p *sourcePkg, sel *ast.SelectorExpr, pos token.Position) (taintCall, bool) {
	fn, ok := p.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() != p.typesPkg {
		return taintCall{}, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return taintCall{pos: pos, local: fn.Name()}, true
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return taintCall{}, false
	}
	return taintCall{pos: pos, local: named.Obj().Name() + "." + fn.Name()}, true
}
