// Command perfbench is the repository's host-time benchmark. It runs one
// workload for a fixed time, checks every op's virtual outputs, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a separate traced run) ending with one JSON line.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload matrix --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"flux/internal/lab"
	"flux/internal/obs"
)

// workload is one input set the benchmark can run.
type workload struct {
	name  string
	why   string
	setup func(e *env, sp *obs.Span) (instance, error)
}

var workloads = []workload{
	{name: "matrix", why: "the paper's 64-cell migration matrix; device boot and the CRIA codec dominate", setup: setupMatrix},
	{name: "commuter", why: "warm pipelined delta round trips on booted pairs; chunking, chunk stores, log verify and replay dominate", setup: setupCommuter},
	{name: "fleet", why: "50k simulated migrations per op on a prebuilt 10k-device Sim; the discrete-event engine dominates", setup: setupFleet},
	{name: "appexec", why: "decorated Binder calls from live apps under Selective Record; binder, AIDL and record append/prune dominate", setup: setupAppexec},
}

// loadWorkers is how many load goroutines drive a window. With one, the
// process's CPU time over an op is that op's CPU time (its own parallel
// work included), which op_cpu_tail_ms needs; the other CPUs are left
// to the program's own goroutines (cria.Marshal's pool) and the GC.
const loadWorkers = 1

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// An untraced run sets its workload up at least minSetups times, and
// again until setupBudget has gone by or it has done maxSetups; setup_s
// is the median, and the last instance is the one timed.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// config is the parsed command line.
type config struct {
	workload  workload
	seed      int64
	seconds   int
	trace     bool
	writeRefs bool
}

// traceOutPattern is where a traced run writes its Chrome trace, by
// workload; run.sh creates the directory.
const traceOutPattern = ".bench_build/perfbench-%s.trace.json"

// errUsage marks a refused command line.
var errUsage = errors.New("usage")

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Int64("seed", defaultSeed, "workload seed")
		seconds = fs.Int("seconds", 10, "length of one timed window in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
		write   = fs.Bool("write-refs", false, "store this run's digests as the references (default seed only)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	}
	w, ok := workloadByName(*name)
	if !ok {
		return config{}, fmt.Errorf("%w: unknown workload %q (want one of %s)", errUsage, *name, workloadNames())
	}
	switch {
	case *seconds < 1:
		return config{}, fmt.Errorf("%w: --seconds must be at least 1, got %d", errUsage, *seconds)
	case *trace != 0 && *trace != 1:
		return config{}, fmt.Errorf("%w: --trace must be 0 or 1, got %d", errUsage, *trace)
	case *write && *seed != defaultSeed:
		return config{}, fmt.Errorf("%w: --write-refs needs the default seed %d", errUsage, defaultSeed)
	}
	return config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, writeRefs: *write}, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// env is what a workload's set-up and ops share.
type env struct {
	seed    int64
	seconds int
	workers int // load goroutines
	check   *checker
}

// provenance describes the host and the run; every output carries it.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Workers    int    `json:"workers"`
	// Ops counts the ops of each window, by window name.
	Ops map[string]int64 `json:"ops"`
}

func newProvenance(cfg config) provenance {
	sha := lab.GitSHA(".")
	if sha == "" {
		sha = "unknown"
	}
	return provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GitSHA:     sha,
		Workload:   cfg.workload.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Workers:    loadWorkers,
		Ops:        map[string]int64{},
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	refs, err := loadRefs(refsPath)
	if err != nil && !(cfg.writeRefs && errors.Is(err, os.ErrNotExist)) {
		return err
	}
	e := &env{seed: cfg.seed, seconds: cfg.seconds, workers: loadWorkers, check: newChecker(refs, cfg.seed)}
	prov := newProvenance(cfg)
	budget := time.Duration(cfg.seconds) * time.Second

	inst, setups, err := setUp(cfg.workload, e, !cfg.trace)
	if err != nil {
		return err
	}
	// VmHWM never falls, so the window reads it as the load stops,
	// before verify builds its own devices and stores.
	win, err := runWindow(inst, loadWorkers, budget, false)
	if err != nil {
		return err
	}
	prov.Ops["window"] = win.ops
	if err := inst.verify(); err != nil {
		return err
	}
	attempted, failed := win.ops, win.failed

	var metrics []metric
	if !cfg.trace {
		metrics = endToEnd(win, setups)
	} else {
		inst = nil // the traced run sets up afresh; let this instance go
		tr, err := tracedRun(cfg, e, budget)
		if err != nil {
			return err
		}
		prov.Ops["traced"] = tr.win.ops
		prov.Ops["bare"] = tr.bareOps()
		attempted += tr.win.ops + tr.bareOps()
		failed += tr.win.failed + tr.bareFailed()
		metrics = layerMetrics(win, tr)
		if err := writeChromeTrace(fmt.Sprintf(traceOutPattern, cfg.workload.name), prov, tr.win.layers.sampled); err != nil {
			return fmt.Errorf("writing the Chrome trace: %w", err)
		}
		if tr.dropped > 0 {
			e.check.fail("the tracer dropped %d spans", tr.dropped)
		}
	}

	if cfg.writeRefs {
		if err := writeRefs(refsPath, cfg.workload.name+"/", refs, e.check.digests()); err != nil {
			return fmt.Errorf("writing references: %w", err)
		}
	}
	checkFailures, firstErr := e.check.result()
	printReport(out, prov, metrics, failed, attempted, firstErr)
	res := result{
		Correct:   checkFailures == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range metrics {
		if !m.humanOnly {
			res.Metrics[m.Name] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// setUp builds the workload, timing each set-up, and returns the last
// instance with the set-up durations. With repeat unset it sets up once.
func setUp(w workload, e *env, repeat bool) (instance, []time.Duration, error) {
	var inst instance
	var setups []time.Duration
	var spent time.Duration
	for len(setups) == 0 || repeat && len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget) {
		inst = nil
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(e, nil); err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(start))
		spent += setups[len(setups)-1]
	}
	return inst, setups, nil
}

// printReport writes the human-readable part of the output: provenance,
// then every metric with its unit.
func printReport(out io.Writer, prov provenance, metrics []metric, failed, attempted int64, firstErr string) {
	p, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", p)
	if firstErr != "" {
		fmt.Fprintf(out, "correctness: FAILED: %s\n", firstErr)
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d\n", attempted, failed)
	sorted := append([]metric(nil), metrics...)
	if prov.Trace {
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	}
	for _, m := range sorted {
		fmt.Fprintf(out, "%-32s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.note)
	}
}
