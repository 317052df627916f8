package main

import (
	"fmt"
	"runtime"

	"flux/internal/fleet"
	"flux/internal/obs"
)

const (
	// fleetSpecPath is the 10k-device spec the fleet workload runs, with
	// its seed replaced by the workload seed.
	fleetSpecPath = "fleet/specs/scale-10k.yaml"
	// smokeSpecPath and smokeReportPath are the fleet-smoke spec and its
	// committed report, which set-up reproduces as a cross-check.
	smokeSpecPath   = "fleet/specs/smoke.yaml"
	smokeReportPath = "BENCH_fleet.json"
)

// fleetInst re-runs one Sim: Reset, Run and Report per op. A Sim is
// single-threaded, so the workload runs one load goroutine.
type fleetInst struct {
	env *env
	sim *fleet.Sim
	key string
}

func setupFleet(e *env, sp *obs.Span) (instance, error) {
	if err := checkSmoke(); err != nil {
		e.check.fail("fleet cross-check: %v", err)
	}
	spec, err := fleet.LoadSpec(fleetSpecPath)
	if err != nil {
		return nil, err
	}
	spec.Seed = e.seed
	sim, err := call(sp, "fleet.NewSim", func() (*fleet.Sim, error) { return fleet.NewSim(spec, 0) })
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", fleetSpecPath, err)
	}
	return &fleetInst{env: e, sim: sim, key: fmt.Sprintf("fleet/%s/seed%d", spec.Name, spec.Seed)}, nil
}

// checkSmoke runs the fleet-smoke spec once and compares its report with
// the committed one.
func checkSmoke() error {
	spec, err := fleet.LoadSpec(smokeSpecPath)
	if err != nil {
		return err
	}
	sim, err := fleet.NewSim(spec, 0)
	if err != nil {
		return err
	}
	sim.Run()
	baseline, err := fleet.LoadReport(smokeReportPath)
	if err != nil {
		return err
	}
	return sim.Report().Check(baseline)
}

func (f *fleetInst) fixedOps(int) int64 { return -1 }

func (f *fleetInst) op(_ int, _ int64, root *obs.Span) opOut {
	clock := startOp()
	f.sim.Reset()
	_, _ = call(root, "fleet.Sim.Run", func() (any, error) { f.sim.Run(); return nil, nil })
	rep, _ := call(root, "fleet.Sim.Report", func() (*fleet.Report, error) { return f.sim.Report(), nil })
	out := clock.stop()
	out.events = f.sim.Events()
	d, err := fleetDigest(rep)
	if err != nil {
		f.env.check.fail("%s: %v", f.key, err)
		return out
	}
	out.ok = f.env.check.check(f.key, d)
	return out
}

func (f *fleetInst) verify() error { return nil }

// layerExtras counts the heap allocations of one Sim.Run.
func (f *fleetInst) layerExtras(m map[string]float64) {
	f.sim.Reset()
	runtime.GC()
	before := readUsage()
	f.sim.Run()
	after := readUsage()
	m["fleet.run_allocs"] = float64(after.allocs - before.allocs)
}
