package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"

	"flux/internal/apps"
	"flux/internal/device"
	"flux/internal/experiments"
	"flux/internal/migration"
	"flux/internal/obs"
	"flux/internal/pairing"
)

// resultsPath is the committed evaluation output whose matrix summary the
// matrix workload must reproduce.
const resultsPath = "BENCH_results.json"

// matrixCell is one (app, device pair) of the paper's 64-cell matrix.
type matrixCell struct {
	pair experiments.Pair
	app  apps.App
	key  string
}

// matrixInst runs whole cells: boot both devices, install, pair,
// launch, migrate stop-and-copy, check.
type matrixInst struct {
	env   *env
	cells []matrixCell
	order []int // seeded permutation of cells; ops walk it cyclically
	next  atomic.Int64
}

// matrixCells lists the cells in the order experiments.RunMatrix uses.
func matrixCells() []matrixCell {
	var cells []matrixCell
	for pi, p := range experiments.Figure12Pairs() {
		for _, a := range apps.Migratable() {
			cells = append(cells, matrixCell{pair: p, app: a, key: fmt.Sprintf("matrix/%s/pair%d", a.Spec.Package, pi)})
		}
	}
	return cells
}

// matrixOrder is the seeded order in which ops take cells.
func matrixOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

func setupMatrix(e *env, sp *obs.Span) (instance, error) {
	cells := matrixCells()
	// Cross-check: the whole matrix once, whose virtual averages must
	// equal the committed summary; its cells are every op's first run.
	full := make([]experiments.Cell, len(cells))
	for i, c := range cells {
		_, _, rep, err := runCell(c, sp)
		if err != nil {
			return nil, fmt.Errorf("matrix cross-check %s: %w", c.key, err)
		}
		if !rep.StateConsistent() {
			e.check.fail("matrix cross-check %s: service state diverged", c.key)
		}
		e.check.check(c.key, reportDigest(rep))
		full[i] = experiments.Cell{App: c.app, Pair: c.pair, Report: rep}
	}
	if err := checkSummary(resultsPath, experiments.MatrixMetrics(full)); err != nil {
		e.check.fail("matrix cross-check: %v", err)
	}
	return &matrixInst{env: e, cells: cells, order: matrixOrder(e.seed, len(cells))}, nil
}

// checkSummary compares the matrix's virtual averages with the summary
// section of the committed results file, exactly.
func checkSummary(path string, got map[string]float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var res experiments.Results
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, s := range res.Sections {
		if s.Name != "summary" {
			continue
		}
		if len(s.Metrics) != len(got) {
			return fmt.Errorf("%s summary has %d metrics, the matrix gives %d", path, len(s.Metrics), len(got))
		}
		for k, want := range s.Metrics {
			if got[k] != want {
				return fmt.Errorf("%s summary %s = %v, the matrix gives %v", path, k, want, got[k])
			}
		}
		return nil
	}
	return fmt.Errorf("%s has no summary section", path)
}

func (m *matrixInst) fixedOps(int) int64 { return -1 }

func (m *matrixInst) op(_ int, _ int64, root *obs.Span) opOut {
	n := m.next.Add(1) - 1
	c := m.cells[m.order[n%int64(len(m.cells))]]
	clock := startOp()
	home, guest, rep, err := runCell(c, root)
	out := clock.stop()
	if err != nil {
		m.env.check.fail("%s: %v", c.key, err)
		return out
	}
	if !rep.StateConsistent() {
		m.env.check.fail("%s: service state diverged", c.key)
		return out
	}
	out.ok = m.env.check.check(c.key, reportDigest(rep))
	if root != nil {
		out.reps = []*migration.Report{rep}
		out.rec = recStats(home, guest)
		out.rec.live = float64(guest.Recorder.Log().Len())
	}
	return out
}

func (m *matrixInst) verify() error { return nil }

// runCell is one matrix cell, each call into the program wrapped in a
// benchmark span under parent.
func runCell(c matrixCell, parent *obs.Span) (home, guest *device.Device, rep *migration.Report, err error) {
	if home, err = bootDevice(parent, c.pair.Home("home")); err != nil {
		return
	}
	if guest, err = bootDevice(parent, c.pair.Guest("guest")); err != nil {
		return
	}
	if _, err = call(parent, "apps.Install", func() (any, error) { return nil, apps.Install(home, c.app) }); err != nil {
		return
	}
	if _, err = call(parent, "pairing.Pair", func() (pairing.Result, error) {
		return pairing.Pair(home, guest, []string{c.app.Spec.Package})
	}); err != nil {
		return
	}
	if _, err = call(parent, "apps.Launch", func() (*apps.Session, error) { return apps.Launch(home, c.app) }); err != nil {
		return
	}
	rep, err = migrate(parent, home, guest, c.app.Spec.Package, migration.Options{})
	return
}

// bootDevice is device.New under a benchmark span.
func bootDevice(parent *obs.Span, p device.Profile) (*device.Device, error) {
	return call(parent, "device.New", func() (*device.Device, error) { return device.New(p) })
}

// migrate runs one Migrate under a benchmark span; the program's own
// migrate span tree nests beneath it.
func migrate(parent *obs.Span, src, dst *device.Device, pkg string, opts migration.Options) (*migration.Report, error) {
	sp := parent.Child("migration.Migrate")
	defer sp.End()
	opts.Span = sp
	return migration.New(src, dst, opts).Migrate(pkg)
}

// call runs fn inside a benchmark span named after the program function
// it calls. A nil parent (untraced run) records nothing.
func call[T any](parent *obs.Span, name string, fn func() (T, error)) (T, error) {
	sp := parent.Child(name)
	defer sp.End()
	return fn()
}
