package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"flux/internal/migration"
	"flux/internal/obs"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestNearestRank(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{1, 1}, {50, 50}, {50.5, 51}, {99, 99}, {99.9, 100}, {100, 100}} {
		if got := nearestRank(sorted, c.p); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("p%g of 1..100 ms = %v, want %d ms", c.p, got, c.want)
		}
	}
	if got := nearestRank(durations(7), 99); got != 7*time.Millisecond {
		t.Errorf("p99 of one sample = %v, want 7ms", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // rank 9990: exactly 10 beyond
		{9999, 99},    // p99.9 would leave 9
		{1000, 99},
		{999, 95},
		{200, 95},
		{100, 90},
		{20, 50},
		{5, 50}, // too few for any entry: the median
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n >= 2*minTailBeyond && c.n-rankOf(c.n, got) < minTailBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, got, c.n-rankOf(c.n, got))
		}
	}
}

func TestGroupedTailIsTheMedianOfGroupTails(t *testing.T) {
	// Three groups of 1000 ops in start order; each group's p99 is its
	// 990th value. Only the middle group's tail can be the median.
	var lat, starts []time.Duration
	for g := 0; g < 3; g++ {
		for i := 1; i <= 1000; i++ {
			lat = append(lat, time.Duration(g*10000+i)*time.Microsecond)
			starts = append(starts, time.Duration(g*1000+i))
		}
	}
	tail, pct, groups := groupedTail(lat, starts)
	if groups != 3 || pct != 99 || tail != 10990*time.Microsecond {
		t.Fatalf("groupedTail = %v p%g over %d groups, want 10.99ms p99 over 3", tail, pct, groups)
	}
}

func TestTailGroupsCutShortWindows(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 1}, {79, 1}, {80, 2}, {240, 5}, {999, 5}, {1000, 1}, {2999, 2}, {17149, 17},
	} {
		if got := tailGroups(c.n); got != c.want {
			t.Errorf("tailGroups(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// A short window's groups are cut small enough for p75 and no
	// smaller.
	if p := tailPercentile(minGroupOps); p != 75 {
		t.Errorf("tailPercentile(%d) = p%g, want p75", minGroupOps, p)
	}
}

func testReport() *migration.Report {
	rep := &migration.Report{TransferredBytes: 123456, CompressedImageBytes: 65432, Outcome: migration.OutcomeOK}
	for i := range rep.Timings {
		rep.Timings[i] = time.Duration(i+1) * time.Second
	}
	return rep
}

func TestDigestCatchesOneNanosecondAndOneByte(t *testing.T) {
	base := reportDigest(testReport())
	if again := reportDigest(testReport()); again != base {
		t.Fatalf("equal reports digest differently: %x vs %x", again, base)
	}
	for stage := range testReport().Timings {
		rep := testReport()
		rep.Timings[stage] += time.Nanosecond
		if reportDigest(rep) == base {
			t.Errorf("a 1 ns change to stage %d timing left the digest unchanged", stage)
		}
	}
	rep := testReport()
	rep.TransferredBytes++
	if reportDigest(rep) == base {
		t.Error("a 1-byte TransferredBytes change left the digest unchanged")
	}
}

func TestCheckerComparesReferencesAndRepeats(t *testing.T) {
	refs := map[string]string{"matrix/app/pair0": "0000000000000001", "fleet/x": "0000000000000002"}

	c := newChecker(refs, defaultSeed)
	if !c.check("fleet/x", 2) || !c.check("fleet/x", 2) {
		t.Error("a digest equal to its reference was refused")
	}
	if c.check("matrix/app/pair0", 3) {
		t.Error("a digest differing from its reference passed")
	}
	if !c.check("new/key", 5) || c.check("new/key", 6) {
		t.Error("a repeat must equal the key's first execution")
	}
	if n, _ := c.result(); n != 2 {
		t.Errorf("%d failures recorded, want 2", n)
	}

	other := newChecker(refs, defaultSeed+1)
	if other.check("matrix/app/pair0", 3) {
		t.Error("seed-free matrix references must hold on every seed")
	}
	if !other.check("fleet/x", 9) {
		t.Error("a seed-dependent reference was applied to another seed")
	}
}

func TestSeededInputsAreDeterministic(t *testing.T) {
	a, b := matrixOrder(7, 64), matrixOrder(7, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two matrix orders")
	}
	if reflect.DeepEqual(a, matrixOrder(8, 64)) {
		t.Error("different seeds gave the same matrix order")
	}
	seen := make([]bool, 64)
	for _, i := range a {
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("matrix order misses cell %d", i)
		}
	}

	batchDigest := func(seed int64) vdigest {
		t.Helper()
		aw, err := newAppexecWorker(seed, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := aw.batch(); err != nil {
				t.Fatal(err)
			}
		}
		return aw.batchDigest()
	}
	if batchDigest(3) != batchDigest(3) {
		t.Error("the same seed gave two appexec call streams")
	}
	if batchDigest(3) == batchDigest(4) {
		t.Error("different seeds gave the same appexec call stream")
	}
}

func TestAppexecMixFollowsEachAppsCatalogRun(t *testing.T) {
	aw, err := newAppexecWorker(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]callKind{
		"io.github.flappybird":    {kindVolume},
		"com.king.candycrushsaga": {kindNotify, kindNotify, kindAlarm},
		"com.instagram.android":   {kindReceiver},
		"com.snapchat.android":    {kindCamera, kindCamera, kindKeyboard},
		"net.zedge.android":       {kindVolume, kindRinger},
	}
	for _, a := range aw.apps {
		if w, ok := want[a.pkg]; ok && !reflect.DeepEqual(a.calls, w) {
			t.Errorf("%s: mix kinds %v, want %v", a.pkg, a.calls, w)
		}
	}
	for b := 0; b < 20; b++ {
		aw.plan()
		for _, c := range aw.next {
			found := false
			for _, k := range c.a.calls {
				found = found || k == c.kind
			}
			if !found {
				t.Fatalf("%s drew kind %d, which its catalog Run never issues", c.a.pkg, c.kind)
			}
		}
		if err := aw.issue(); err != nil {
			t.Fatal(err)
		}
		for _, a := range aw.apps {
			if n := len(aw.dev.Recorder.Log().AppEntries(a.pkg)); n > a.liveBound() {
				t.Fatalf("%s: %d live record entries, bound %d", a.pkg, n, a.liveBound())
			}
		}
	}
}

func TestParseFlagsRefusesBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{},
		{"--workload", "matrix", "--workers", "2"},
		{"--workload", "matrix", "--trace", "2"},
		{"--workload", "matrix", "--seconds", "0"},
		{"--workload", "matrix", "--seed", "2", "--write-refs"},
		{"--workload", "matrix", "extra"},
		{"--workload", "matrix", "--bogus"},
	} {
		if _, err := parseFlags(args); !errors.Is(err, errUsage) {
			t.Errorf("parseFlags(%q) = %v, want a usage error", args, err)
		}
	}
	cfg, err := parseFlags([]string{"--workload", "matrix", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil || cfg.workload.name != "matrix" || cfg.seed != 9 || cfg.seconds != 3 || !cfg.trace {
		t.Errorf("matrix flags parsed to %+v, %v", cfg, err)
	}
}

func TestSliceRatesCountOpsFractionally(t *testing.T) {
	w := &window{
		ops: 3,
		// Ops of 0.75 s: [0, .75) [.75, 1.5) [1.5, 2.25).
		tiles:   [][]time.Duration{durations(0, 750, 1500, 2250)},
		ticks:   []tick{{at: time.Second, cpu: 1500 * time.Millisecond}, {at: 2 * time.Second, cpu: 2500 * time.Millisecond}},
		elapsed: 2250 * time.Millisecond,
		before:  usage{cpu: 500 * time.Millisecond},
	}
	slices := w.slices()
	want := []float64{1 + 1.0/3, 2.0/3 + 2.0/3}
	if len(slices) != 2 || math.Abs(slices[0].ops-want[0]) > 1e-9 || math.Abs(slices[1].ops-want[1]) > 1e-9 {
		t.Fatalf("slices = %+v, want ops %v", slices, want)
	}
	if cpu := ms(slices[0].cpu) / slices[0].ops; math.Abs(cpu-1000/want[0]) > 1e-9 {
		t.Errorf("cpu ms per op = %v, want %v", cpu, 1000/want[0])
	}
}

func TestQuietSlicesLeaveOutStolenTime(t *testing.T) {
	host := func(total, steal uint64) hostCPU { return hostCPU{total: total, steal: steal} }
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	// Four one-second slices of 200 host ticks; the hypervisor steals
	// 40 in the second and 10 in the fourth.
	w := &window{
		ops:     4,
		tiles:   [][]time.Duration{{0, sec(1), sec(2), sec(3), sec(4)}},
		lat:     []time.Duration{sec(1), sec(1), sec(1), sec(1)},
		starts:  []time.Duration{0, sec(1), sec(2), sec(3)},
		elapsed: sec(4),
		ticks: []tick{
			{at: sec(1), host: host(200, 0)}, {at: sec(2), host: host(400, 40)},
			{at: sec(3), host: host(600, 40)}, {at: sec(4), host: host(800, 50)},
		},
	}
	quiet := quietSlices(w.slices())
	if len(quiet) != 2 || quiet[0].from != 0 || quiet[1].from != sec(2) {
		t.Fatalf("quiet slices = %+v, want the first and the third", quiet)
	}
	if in := w.opsIn(quiet); len(in) != 2 || in[0] != 0 || in[1] != 2 {
		t.Errorf("ops %v started in the quiet slices, want [0 2]", in)
	}
	// Without stolen time, every slice is quiet.
	for i := range w.ticks {
		w.ticks[i].host.steal = 0
	}
	if quiet := quietSlices(w.slices()); len(quiet) != 4 {
		t.Errorf("%d quiet slices without stolen time, want 4", len(quiet))
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.SpanData{
		{ID: 1, Name: "parent", StartWall: at(0), EndWall: at(10)},
		{ID: 2, Parent: 1, StartWall: at(1), EndWall: at(3)},
		{ID: 3, Parent: 1, StartWall: at(2), EndWall: at(5)},  // overlaps the first
		{ID: 4, Parent: 1, StartWall: at(8), EndWall: at(12)}, // clipped at the parent's end
	}
	if got := selfTimes(spans)[0]; got != 4*time.Millisecond {
		t.Errorf("self time = %v, want 4ms", got)
	}
}

func TestStateConsistentByAllowsOnlyDueAlarms(t *testing.T) {
	rep := func(after map[string]string) *migration.Report {
		return &migration.Report{
			StateBefore: map[string]string{"alarm/alarm.op": "1000", "audio/stream3": "7"},
			StateAfter:  after,
		}
	}
	for _, c := range []struct {
		after map[string]string
		endMS int64
		want  bool
	}{
		{map[string]string{"alarm/alarm.op": "1000", "audio/stream3": "7"}, 0, true},
		{map[string]string{"audio/stream3": "7"}, 1000, true},                         // the alarm fired
		{map[string]string{"audio/stream3": "7"}, 999, false},                         // not yet due
		{map[string]string{"alarm/alarm.op": "1000"}, 5000, false},                    // a non-alarm key lost
		{map[string]string{"alarm/alarm.op": "1000", "audio/stream3": "6"}, 0, false}, // a value changed
		{map[string]string{"audio/stream3": "7", "extra/key": "1"}, 5000, false},      // a key appeared
	} {
		if got := stateConsistentBy(rep(c.after), c.endMS); got != c.want {
			t.Errorf("after %v at %d ms: consistent = %v, want %v", c.after, c.endMS, got, c.want)
		}
	}
}

func TestHopGrowth(t *testing.T) {
	var lat []time.Duration
	var hops []int
	for h := 1; h <= 100; h++ {
		lat = append(lat, time.Duration(h)*time.Millisecond)
		hops = append(hops, h)
	}
	// First tenth: hops 1..10 (median 5 ms); last tenth: 91..100 (95 ms).
	if got := hopGrowth(lat, hops); got != 19 {
		t.Errorf("hopGrowth = %v, want 19", got)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json's workloads and
// metric names and units equal to what the benchmark prints.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if got, ok := workloadByName(w.Name); !ok || got.why != w.Why {
			t.Errorf("workload %q: why %q in BENCHMARK.json, %q in the code", w.Name, w.Why, got.why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the code has %d", names, len(workloads))
	}

	win := &window{ops: 1, lat: durations(1), cpu: durations(1), starts: durations(0), tiles: [][]time.Duration{durations(0, 1)}, elapsed: time.Millisecond}
	tr := &tracedResult{win: &window{layers: newLayerAcc()}, extras: map[string]float64{}}
	type nameUnit struct{ Name, Unit string }
	collect := func(ms []metric) (out []nameUnit) {
		for _, m := range ms {
			if !m.humanOnly {
				out = append(out, nameUnit{m.Name, m.Unit})
			}
		}
		return out
	}
	convert := func(in []struct{ Name, Unit string }) (out []nameUnit) {
		for _, m := range in {
			out = append(out, nameUnit(m))
		}
		return out
	}
	if got, want := collect(endToEnd(win, durations(1))), convert(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics:\n code %v\n json %v", got, want)
	}
	if got, want := collect(layerMetrics(win, tr)), convert(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics:\n code %v\n json %v", got, want)
	}
}

func TestOpLogRoundTrips(t *testing.T) {
	t.Chdir(t.TempDir())
	log, err := newOpLog()
	if err != nil {
		t.Fatal(err)
	}
	want := []opRecord{{start: 1, lat: 2, cpu: 3, hop: 4}, {start: time.Hour, lat: time.Second, cpu: time.Millisecond}}
	for _, r := range want {
		log.add(r)
	}
	got, err := log.records()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %v, %v; want %v", got, err, want)
	}
	if _, err := os.Stat(log.f.Name()); !os.IsNotExist(err) {
		t.Errorf("the op log's file is still there: %v", err)
	}
}
