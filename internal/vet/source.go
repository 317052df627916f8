package vet

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Layer 3 — Go source passes.
//
// A self-contained go/analysis-style pass driver over the standard
// library's go/ast + go/types (the container bakes no golang.org/x/tools,
// so there is no multichecker to lean on; the driver shape mirrors it
// closely enough that migrating later is mechanical). The repo's package
// graph is loaded and type-checked exactly once, passes run in parallel
// (one goroutine per pass, packages visited in import-dependency order so
// per-package facts flow from imported packages to their importers), and
// every diagnostic funnels through the same positioned Finding type and
// the //fluxvet:allow waiver machinery. See driver.go for the scheduler
// and pass registry; the individual analyses live in pass_*.go:
//
//	wallclock          — direct wall-clock reads (time.Now, time.Sleep,
//	                     timers/tickers) in virtual-clock packages
//	                     (pass_determinism.go).
//	determinism-taint  — call-graph propagation of wall-clock / unseeded
//	                     math/rand reach: a helper that transitively hits
//	                     a nondeterminism source is flagged at every call
//	                     site inside a deterministic output path, with
//	                     facts crossing package boundaries
//	                     (pass_determinism.go).
//	maprange           — bare map iteration in deterministic output paths
//	                     unless the loop body is provably
//	                     order-independent (pass_maprange.go).
//	lock-order         — conflicting mutex-acquisition orders across the
//	                     lock-heavy packages; summaries of which locks a
//	                     function takes propagate through the call graph
//	                     (pass_lockorder.go).
//	durability         — discarded Write/Sync errors and deferred Close
//	                     on *os.File write paths, and tmp+rename
//	                     sequences that bypass atomicio.WriteFile
//	                     (pass_durability.go).
//	wire-drift         — cross-package consistency of the wire magics
//	                     (FXC2–FXC4, FLXG, FLXA), header sizes,
//	                     length-guard caps, and faults.Site coverage
//	                     (pass_wiredrift.go).
//
// Packages are type-checked one at a time with a permissive importer, so
// the passes need no network, no build cache, and no subprocess: map-ness
// and receiver types of package-local expressions (the realistic bug
// class) resolve exactly; cross-package types degrade to a syntactic
// miss, never a false positive. Cross-package *semantic* knowledge —
// taint, lock sets, magic registries — travels through the driver's
// per-package fact store instead.

// AllowDirective is the magic comment that suppresses a source finding on
// its own line or the line directly above:
//
//	start := time.Now() //fluxvet:allow wallclock — measures real regen cost
//
// Only a comment that *begins* with the directive counts (mentions inside
// prose, like the example above, do not). A directive whose check name is
// unknown is an unknown-allow finding; a directive that suppresses
// nothing is a stale-allow finding, so annotations cannot rot.
const AllowDirective = "//fluxvet:allow"

// Source-layer check names. Waivers and -only/-skip match on these.
const (
	CheckWallClock        = "wallclock"
	CheckDeterminismTaint = "determinism-taint"
	CheckMapRange         = "maprange"
	CheckLockOrder        = "lock-order"
	CheckDurability       = "durability"
	CheckWireDrift        = "wire-drift"
	// CheckStaleAllow and CheckUnknownAllow are emitted by the driver
	// itself (directive hygiene); they are not selectable.
	CheckStaleAllow   = "stale-allow"
	CheckUnknownAllow = "unknown-allow"
)

// SourceCheckNames lists the selectable source checks in stable order.
func SourceCheckNames() []string {
	return []string{
		CheckDeterminismTaint, CheckDurability, CheckLockOrder,
		CheckMapRange, CheckWallClock, CheckWireDrift,
	}
}

// SourceConfig parameterizes RunSource. Each pass runs over (and reports
// in) its own directory scope; the driver loads the union exactly once.
type SourceConfig struct {
	// Root is the repository root (the directory holding go.mod).
	Root string
	// VirtualClockDirs are Root-relative package directories in which the
	// wallclock check runs, and in which determinism-taint facts are
	// gathered (packages outside the list — obs, apps — use the wall
	// clock by design and never propagate taint).
	VirtualClockDirs []string
	// DeterministicDirs are Root-relative package directories in which
	// the maprange check runs.
	DeterministicDirs []string
	// TaintDirs are Root-relative package directories in which
	// determinism-taint findings are reported: deterministic output
	// paths whose helpers must not transitively reach a wall clock or
	// unseeded rand. Typically the intersection of VirtualClockDirs and
	// DeterministicDirs.
	TaintDirs []string
	// LockDirs are Root-relative package directories in which the
	// lock-order check extracts mutex-acquisition orders.
	LockDirs []string
	// DurabilityDirs are Root-relative package directories in which the
	// durability check runs.
	DurabilityDirs []string
	// WireDirs are Root-relative package directories in which the
	// wire-drift check runs.
	WireDirs []string
	// IncludeTests also lints _test.go files (off by default: tests
	// routinely use real timeouts).
	IncludeTests bool
}

// DefaultSourceConfig returns the repo's shipped invariant scope: every
// internal package is on the virtual clock except obs (wall-time spans by
// design) and apps (real-throughput microbenches); the deterministic
// output paths are the evaluation driver, the migration pipeline, the
// network simulator, and the telemetry exporters; the lock-order scope is
// the sharded/locked hot paths; the durability scope is the three
// packages that own fsync'd write paths; the wire scope is every package
// that declares or consumes a wire magic or a fault site.
func DefaultSourceConfig(root string) SourceConfig {
	cfg := SourceConfig{Root: root}
	exempt := map[string]bool{"obs": true, "apps": true}
	ents, err := os.ReadDir(filepath.Join(root, "internal"))
	if err == nil {
		for _, e := range ents {
			if e.IsDir() && !exempt[e.Name()] {
				cfg.VirtualClockDirs = append(cfg.VirtualClockDirs, filepath.Join("internal", e.Name()))
			}
		}
	}
	sort.Strings(cfg.VirtualClockDirs)
	cfg.DeterministicDirs = []string{
		"internal/atomicio",
		"internal/chunkstore",
		"internal/experiments",
		"internal/fleet",
		"internal/lab",
		"internal/migration",
		"internal/netsim",
		"internal/obs",
		"internal/seglog",
		"internal/yamlite",
	}
	// Deterministic output paths that are also on the virtual clock:
	// everything above except obs (wall-time telemetry by design).
	wall := map[string]bool{}
	for _, d := range cfg.VirtualClockDirs {
		wall[d] = true
	}
	for _, d := range cfg.DeterministicDirs {
		if wall[d] {
			cfg.TaintDirs = append(cfg.TaintDirs, d)
		}
	}
	cfg.LockDirs = []string{
		"internal/chunkstore",
		"internal/obs",
		"internal/record",
		"internal/seglog",
	}
	cfg.DurabilityDirs = []string{
		"internal/atomicio",
		"internal/record",
		"internal/seglog",
	}
	cfg.WireDirs = []string{
		"internal/cria",
		"internal/faults",
		"internal/migration",
		"internal/record",
		"internal/seglog",
	}
	return cfg
}

// RunSource runs every layer-3 pass and returns positioned findings.
// Back-compat façade over the driver; see RunSourceChecks for check
// selection and per-pass timings.
func RunSource(cfg SourceConfig) ([]Finding, error) {
	fs, _, err := RunSourceChecks(cfg, nil, nil)
	return fs, err
}

// sourcePkg is one parsed (and best-effort type-checked) package.
type sourcePkg struct {
	fset     *token.FileSet
	files    []*ast.File
	info     *types.Info
	typesPkg *types.Package // the checked package (for same-package object tests)
	name     string         // package clause name
	// directives are every allow directive in the package, in file
	// order; allowIdx maps file → line → check → directive (a directive
	// covers its own line and the line below).
	directives []*allowDirective
	allowIdx   map[string]map[int]map[string]*allowDirective
}

// allowDirective is one //fluxvet:allow comment. The driver marks it
// used when it suppresses a finding; an unused directive for an enabled
// check becomes a stale-allow finding.
type allowDirective struct {
	file  string
	line  int
	check string
	used  bool
}

// loadPackage parses every Go file of one directory (non-recursive) and
// type-checks it with a permissive importer: the standard library resolves
// for real (from GOROOT source), everything else gets an empty placeholder
// package. Type errors are expected and ignored; the recorded types.Info
// still resolves everything package-local.
func loadPackage(fset *token.FileSet, imp types.Importer, dir string, includeTests bool) (*sourcePkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &sourcePkg{fset: fset, allowIdx: map[string]map[int]map[string]*allowDirective{}}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
		p.name = f.Name.Name
		p.indexAllows(path, f)
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	p.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer:                 imp,
		Error:                    func(error) {}, // non-stdlib imports are stubs; errors expected
		DisableUnusedImportCheck: true,
	}
	p.typesPkg, _ = conf.Check(dir, fset, p.files, p.info) // error ignored: Info is still filled
	return p, nil
}

// permissiveImporter resolves stdlib imports for real (so `time` and map
// types from the standard library type-check exactly) and fabricates an
// empty placeholder for everything else (module-internal imports resolve
// lazily to invalid types, which the passes treat as "not provably a
// map"). Fabricated packages are cached so repeated imports are cheap.
type permissiveImporter struct {
	fallback types.Importer
	stubs    map[string]*types.Package
}

func newPermissiveImporter(fset *token.FileSet) permissiveImporter {
	return permissiveImporter{
		fallback: importer.ForCompiler(fset, "source", nil),
		stubs:    map[string]*types.Package{},
	}
}

func (p permissiveImporter) Import(path string) (*types.Package, error) {
	// Module-internal packages never resolve through the stdlib source
	// importer; skip the doomed GOROOT lookup.
	if !strings.Contains(path, ".") && !strings.HasPrefix(path, "flux") && p.fallback != nil {
		if pkg, err := p.fallback.Import(path); err == nil {
			return pkg, nil
		}
	}
	if pkg, ok := p.stubs[path]; ok {
		return pkg, nil
	}
	name := path[strings.LastIndex(path, "/")+1:]
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	if p.stubs != nil {
		p.stubs[path] = pkg
	}
	return pkg, nil
}

// indexAllows records the package's allow directives. Only comments that
// begin with the directive count — a mention inside prose or an example
// does not — and each directive covers its own line and the line below,
// so both trailing and preceding comment forms work.
func (p *sourcePkg) indexAllows(path string, f *ast.File) {
	lines := p.allowIdx[path]
	if lines == nil {
		lines = map[int]map[string]*allowDirective{}
		p.allowIdx[path] = lines
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, AllowDirective) {
				continue
			}
			rest := strings.TrimSpace(c.Text[len(AllowDirective):])
			check := rest
			if i := strings.IndexAny(rest, " \t—"); i >= 0 {
				check = rest[:i]
			}
			if check == "" {
				continue
			}
			line := p.fset.Position(c.Pos()).Line
			d := &allowDirective{file: path, line: line, check: check}
			p.directives = append(p.directives, d)
			for _, l := range []int{line, line + 1} {
				if lines[l] == nil {
					lines[l] = map[string]*allowDirective{}
				}
				lines[l][check] = d
			}
		}
	}
}

// isAllowed reports whether a directive covers (line, check) — without
// marking it used. Passes consult it when an annotation changes the
// analysis itself (an allowed wall-clock site does not taint its
// callers); the driver does the authoritative suppress-and-mark.
func (p *sourcePkg) isAllowed(pos token.Position, check string) bool {
	return p.allowIdx[pos.Filename][pos.Line][check] != nil
}

// allowFor returns the directive covering (line, check), if any.
func (p *sourcePkg) allowFor(file string, line int, check string) *allowDirective {
	return p.allowIdx[file][line][check]
}
