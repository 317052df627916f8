package main

import (
	"fmt"
	"runtime"
	"time"

	"flux/internal/device"
	"flux/internal/obs"
)

// metric is one named, measured value.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// note is printed beside the value; humanOnly metrics are printed
	// but left out of the JSON line.
	note      string
	humanOnly bool
}

// endToEnd is the untraced window's metrics, as a user of the system sees
// them.
func endToEnd(win *window, setups []time.Duration) []metric {
	// A window closed by the clock takes its latencies, like its rates,
	// from the ops that started in its quiet slices.
	lat, cpu, starts, which := win.lat, win.cpu, win.starts, "all ops"
	if !win.fixed {
		lat, cpu, starts = nil, nil, nil
		for _, i := range win.opsIn(quietSlices(win.slices())) {
			lat, cpu, starts = append(lat, win.lat[i]), append(cpu, win.cpu[i]), append(starts, win.starts[i])
		}
		which = "ops started in the quiet slices"
	}
	s := summarize(lat)
	tail, tailPct, groups := groupedTail(lat, starts)
	cpuTail, cpuTailPct, _ := groupedTail(cpu, starts)
	opsPerSec, cpuPerOp, ratesNote := win.rates()
	failedPct := 0.0
	if win.ops > 0 {
		failedPct = 100 * float64(win.failed) / float64(win.ops)
	}
	return []metric{
		{Name: "ops_per_s", Value: opsPerSec, Unit: "1/s", note: ratesNote},
		{Name: "op_p50_ms", Value: ms(s.p50), Unit: "ms", note: fmt.Sprintf("n=%d of %d, %s", s.n, win.ops, which)},
		{Name: "op_cpu_tail_ms", Value: ms(cpuTail), Unit: "ms",
			note: fmt.Sprintf("process CPU time of one op: p%g (at least %d samples beyond) of each of %d groups of %d+ ops in start order, median", cpuTailPct, minTailBeyond, groups, s.n/groups)},
		{Name: "op_tail_ms", Value: ms(tail), Unit: "ms", humanOnly: true,
			note: fmt.Sprintf("host latency, taken like op_cpu_tail_ms: p%g of each group, median; all of them p%g = %.4g ms, %d beyond, n=%d",
				tailPct, s.tailPct, ms(s.tail), s.beyond, s.n)},
		{Name: "cpu_ms_per_op", Value: cpuPerOp, Unit: "ms"},
		{Name: "allocs_per_op", Value: win.perOp(float64(win.after.allocs - win.before.allocs)), Unit: "count"},
		{Name: "alloc_kb_per_op", Value: win.perOp(float64(win.after.bytes-win.before.bytes) / 1024), Unit: "KiB"},
		{Name: "peak_rss_mb", Value: win.peakRSS, Unit: "MiB", note: "VmHWM as the load stopped"},
		{Name: "setup_s", Value: medianDuration(setups).Seconds(), Unit: "s", note: fmt.Sprintf("median of %d set-ups", len(setups))},
		{Name: "failed_ops_pct", Value: failedPct, Unit: "%", humanOnly: true, note: fmt.Sprintf("%d of %d ops", win.failed, win.ops)},
	}
}

// tracedResult is the outcome of a traced run.
type tracedResult struct {
	win     *window // traced window; its layers include the traced set-up
	bare    *window // appexec only: the window without the recorder
	dropped uint64
	// extras are layer figures the workload reads from its own state.
	extras     map[string]float64
	bootAllocs float64
}

func (t *tracedResult) bareOps() int64 {
	if t.bare == nil {
		return 0
	}
	return t.bare.ops
}

func (t *tracedResult) bareFailed() int64 {
	if t.bare == nil {
		return 0
	}
	return t.bare.failed
}

// layerExtraser is implemented by workloads with layer figures of their
// own (chunk stores, the fleet engine's allocations).
type layerExtraser interface {
	layerExtras(m map[string]float64)
}

// bootProbes is how many devices the traced run boots one after another
// to count device.New's allocations.
const bootProbes = 8

// tracedRun sets the workload up afresh under a benchmark span, runs a
// traced window with the program's telemetry on, and gathers the layer
// figures that spans cannot give.
func tracedRun(cfg config, e *env, budget time.Duration) (*tracedResult, error) {
	runtime.GC()
	setupTracer := obs.NewTracer(spanCap)
	root := setupTracer.Start("setup")
	inst, err := cfg.workload.setup(e, root)
	root.End()
	if err != nil {
		return nil, fmt.Errorf("setting up %s (traced): %w", cfg.workload.name, err)
	}
	setupSpans := newLayerAcc()
	setupSpans.drain(setupTracer, false, nil)

	obs.Reset()
	obs.SetEnabled(true)
	win, err := runWindow(inst, loadWorkers, budget, true)
	if err != nil {
		return nil, err
	}
	obs.SetEnabled(false)
	_, defaultDropped := obs.T().Stats()
	obs.Reset()
	if err := inst.verify(); err != nil {
		return nil, err
	}
	mergeAggs(win.layers.all, setupSpans.all)
	tr := &tracedResult{
		win:     win,
		dropped: setupSpans.dropped + win.layers.dropped + defaultDropped,
		extras:  map[string]float64{},
	}
	if x, ok := inst.(layerExtraser); ok {
		x.layerExtras(tr.extras)
	}
	if a, ok := inst.(*appexecInst); ok {
		if tr.bare, err = a.bareWindow(budget / 2); err != nil {
			return nil, err
		}
	}
	inst = nil
	if tr.bootAllocs, err = bootAllocs(); err != nil {
		return nil, err
	}
	return tr, nil
}

// bootAllocs is the heap allocations of one device.New, booted one after
// another on this goroutine.
func bootAllocs() (float64, error) {
	runtime.GC()
	before := readUsage()
	for i := 0; i < bootProbes; i++ {
		if _, err := device.New(device.Nexus4("probe")); err != nil {
			return 0, err
		}
	}
	after := readUsage()
	return float64(after.allocs-before.allocs) / bootProbes, nil
}

// meanLatNS is a window's mean op latency in ns.
func meanLatNS(w *window) float64 {
	if w == nil || len(w.lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range w.lat {
		sum += d
	}
	return float64(sum) / float64(len(w.lat))
}

func minFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs[1:] {
		m = min(m, v)
	}
	return m
}

func maxFloat(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		m = max(m, v)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics is the per-layer view of a traced run; u is the untraced
// window of the same run. A layer a workload never calls reads 0.
func layerMetrics(u *window, tr *tracedResult) []metric {
	la := tr.win.layers
	win := la.window
	count := func(name string) float64 {
		if a := win[name]; a != nil {
			return float64(a.n)
		}
		return 0
	}
	wallMS := func(name string) float64 {
		if a := win[name]; a != nil {
			return ms(a.wall)
		}
		return 0
	}
	var txNS, bareNS float64
	if tr.bare != nil {
		txNS = meanLatNS(u) / appexecBatch
		bareNS = meanLatNS(tr.bare) / appexecBatch
	}
	untracedRate, _, _ := u.rates()
	tracedRate, _, _ := tr.win.rates()
	mig := float64(la.migrations)
	runS := wallMS("fleet.Sim.Run") / 1e3
	keptRatio := 0.0
	if la.recorded > 0 {
		keptRatio = 1 - float64(la.pruned)/float64(la.recorded)
	}
	return []metric{
		{Name: "device.boot_ms", Value: la.perCallMS("device.New"), Unit: "ms"},
		{Name: "device.boots_per_op", Value: la.perOp(count("device.New")), Unit: "count"},
		{Name: "device.boot_allocs", Value: tr.bootAllocs, Unit: "count"},
		{Name: "apps.install_ms", Value: la.perCallMS("apps.Install"), Unit: "ms"},
		{Name: "apps.launch_ms", Value: la.perCallMS("apps.Launch"), Unit: "ms"},
		{Name: "pairing.pair_ms", Value: la.perCallMS("pairing.Pair"), Unit: "ms"},
		{Name: "binder.tx_ns", Value: txNS, Unit: "ns"},
		{Name: "binder.tx_bare_ns", Value: bareNS, Unit: "ns"},
		{Name: "record.overhead_ratio", Value: ratio(txNS, bareNS), Unit: "ratio"},
		{Name: "record.observed_per_op", Value: la.perOp(float64(la.observed)), Unit: "count"},
		{Name: "record.recorded_per_op", Value: la.perOp(float64(la.recorded)), Unit: "count"},
		{Name: "record.pruned_per_op", Value: la.perOp(float64(la.pruned)), Unit: "count"},
		{Name: "record.live_entries", Value: la.perOp(la.liveSum), Unit: "count"},
		{Name: "record.kept_ratio", Value: keptRatio, Unit: "ratio"},
		{Name: "migration.preparation_ms", Value: la.perMigrationMS("stage.preparation"), Unit: "ms"},
		{Name: "migration.checkpoint_ms", Value: la.perMigrationMS("stage.checkpoint"), Unit: "ms"},
		{Name: "migration.transfer_ms", Value: la.perMigrationMS("stage.transfer"), Unit: "ms"},
		{Name: "migration.restore_ms", Value: la.perMigrationMS("stage.restore"), Unit: "ms"},
		{Name: "migration.reintegration_ms", Value: la.perMigrationMS("stage.reintegration"), Unit: "ms"},
		{Name: "migration.self_ms", Value: la.perMigrationMS("migrate"), Unit: "ms"},
		{Name: "migration.pipeline_chunks", Value: ratio(float64(la.pipelineChunks), mig), Unit: "count"},
		{Name: "migration.cache_lookup_ms", Value: ratio(wallMS("cache.lookup"), mig), Unit: "ms"},
		{Name: "migration.hop_growth", Value: hopGrowth(u.lat, u.hops), Unit: "ratio"},
		{Name: "cria.record_log_ms", Value: la.perMigrationMS("cria.record_log"), Unit: "ms"},
		{Name: "cria.memory_ms", Value: la.perMigrationMS("cria.memory"), Unit: "ms"},
		{Name: "cria.handle_table_ms", Value: la.perMigrationMS("cria.handle_table"), Unit: "ms"},
		{Name: "cria.wrapper_ms", Value: la.perMigrationMS("cria.wrapper"), Unit: "ms"},
		{Name: "cria.log_verify_ms", Value: la.perMigrationMS("cria.log_verify"), Unit: "ms"},
		{Name: "cria.wire_mb", Value: ratio(float64(la.wireBytes), mig) / (1 << 20), Unit: "MiB"},
		{Name: "cria.compression_ratio", Value: ratio(float64(la.imageBytes), float64(la.wireBytes)), Unit: "ratio"},
		{Name: "chunkstore.hit_ratio", Value: ratio(float64(la.cacheHits), float64(la.cacheHits+la.cacheMisses)), Unit: "ratio"},
		{Name: "chunkstore.evictions_per_op", Value: tr.extras["chunkstore.evictions_per_op"], Unit: "count"},
		{Name: "chunkstore.resident_mb", Value: tr.extras["chunkstore.resident_mb"], Unit: "MiB"},
		{Name: "replay.run_ms", Value: la.perMigrationMS("replay.run"), Unit: "ms"},
		{Name: "replay.proxy_ms", Value: la.perMigrationMS("replay.proxy"), Unit: "ms"},
		{Name: "replay.entries_per_op", Value: la.perOp(float64(la.replayEntries)), Unit: "count"},
		{Name: "fleet.newsim_s", Value: la.perCallMS("fleet.NewSim") / 1e3, Unit: "s"},
		{Name: "fleet.events_per_op", Value: la.perOp(float64(la.events)), Unit: "count"},
		{Name: "fleet.events_per_s", Value: ratio(float64(la.events), runS), Unit: "1/s"},
		{Name: "fleet.report_ms", Value: la.perCallMS("fleet.Sim.Report"), Unit: "ms"},
		{Name: "fleet.run_allocs", Value: tr.extras["fleet.run_allocs"], Unit: "count"},
		{Name: "runtime.gc_cycles_per_op", Value: u.perOp(float64(u.after.gcs - u.before.gcs)), Unit: "count"},
		{Name: "runtime.gc_pause_ms_per_op", Value: u.perOp(float64(u.after.pauseNs-u.before.pauseNs) / 1e6), Unit: "ms"},
		{Name: "obs.trace_overhead_pct", Value: 100 * (ratio(untracedRate, tracedRate) - 1), Unit: "%"},
		{Name: "obs.spans_dropped", Value: float64(tr.dropped), Unit: "count"},
	}
}
