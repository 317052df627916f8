package main

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flux/internal/migration"
	"flux/internal/obs"
)

// instance is one set-up copy of a workload, ready for timed ops.
type instance interface {
	// fixedOps returns how many ops worker w runs, or -1 when the
	// window is closed by the clock instead.
	fixedOps(w int) int64
	// op runs worker w's i-th op. out.lat covers only the calls into
	// the program; checks run after it.
	op(w int, i int64, root *obs.Span) opOut
	// verify runs the workload's post-window correctness checks.
	verify() error
}

// opOut is what one op reports back to the window runner.
type opOut struct {
	lat time.Duration
	cpu time.Duration // the process's CPU time over the same calls
	ok  bool
	// hop is the itinerary position of a commuter op (1-based), or 0.
	hop int
	// Layer counts, gathered only on traced ops.
	reps   []*migration.Report
	rec    recDelta
	events uint64
}

// opClock times one op's calls into the program, in host wall time and
// in the process's CPU time, which leaves out time the hypervisor or
// another process held the CPU.
type opClock struct {
	wall time.Time
	cpu  time.Duration
}

func startOp() opClock { return opClock{cpu: processCPU(), wall: time.Now()} }

// stop returns an opOut holding the op's latency and CPU time.
func (c opClock) stop() opOut {
	lat := time.Since(c.wall)
	return opOut{lat: lat, cpu: processCPU() - c.cpu}
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	host    hostCPU
	allocs  uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

// hostCPU is the machine's CPU time so far, in clock ticks, from the
// first line of /proc/stat: all of it, and the part the hypervisor gave
// to other guests while this one's CPUs were ready to run ("steal").
// Both are 0 where /proc/stat is unavailable.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, field := range f[1:9] {
		v, _ := strconv.ParseUint(field, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of the host's CPU time stolen between a and b.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		wall:    time.Now(),
		allocs:  ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
	u.cpu = processCPU()
	u.host = readHostCPU()
	return u
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0 when
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// window is the outcome of one timed window.
type window struct {
	ops, failed int64
	lat         []time.Duration
	cpu         []time.Duration // cpu[i] is lat[i]'s op's CPU time
	// starts[i] is when lat[i]'s op began, from the window's start.
	starts []time.Duration
	hops   []int // hops[i] is lat[i]'s itinerary position (commuter)
	// tiles holds, per worker, the start of each of its ops and then the
	// moment its loop ended: op k occupied [tiles[k], tiles[k+1]).
	tiles         [][]time.Duration
	ticks         []tick // CPU time sampled every sliceLen
	elapsed       time.Duration
	before, after usage
	fixed         bool      // closed by a fixed op count, not the clock
	layers        *layerAcc // traced windows only
	// peakRSS is the process's peak resident set (VmHWM) in MiB, read
	// as the load stopped.
	peakRSS float64
}

// sliceLen is the length of the time slices whose rates the end-to-end
// throughput and CPU figures take the median of.
const sliceLen = time.Second

// tick is one sample of the process's and the host's CPU time during a
// window.
type tick struct {
	at   time.Duration // from the window's start
	cpu  time.Duration
	host hostCPU
}

// rates returns the window's completed ops per second and CPU ms per op.
// A window closed by the clock reports the median over its quiet slices,
// so a burst of host noise moves one slice, not the figure. A window of
// a fixed op count (the commuter's itinerary) reports its totals: its
// slices are not alike, since each hop costs more than the one before.
func (w *window) rates() (opsPerSec, cpuMSPerOp float64, note string) {
	if w.fixed {
		return float64(w.ops) / w.elapsed.Seconds(), w.perOp(ms(w.after.cpu - w.before.cpu)),
			fmt.Sprintf("whole window of %d ops in %.3f s", w.ops, w.elapsed.Seconds())
	}
	all := w.slices()
	quiet := quietSlices(all)
	var rates, cpu []float64
	for _, sl := range quiet {
		if sl.ops > 0 {
			rates = append(rates, sl.ops/(sl.to-sl.from).Seconds())
			cpu = append(cpu, ms(sl.cpu)/sl.ops)
		}
	}
	return medianFloat(rates), medianFloat(cpu),
		fmt.Sprintf("median of %d quiet slices of %v of %d (ops/s from %.5g to %.5g; host CPU stolen %.1f%% in them, %.1f%% in all); %d ops in %.3f s",
			len(rates), sliceLen, len(all), minFloat(rates), maxFloat(rates),
			100*meanSteal(quiet), 100*meanSteal(all), w.ops, w.elapsed.Seconds())
}

// opsIn returns the indices of the ops that started in one of slices,
// which are in time order.
func (w *window) opsIn(slices []slice) []int {
	var in []int
	for i, st := range w.starts {
		k := sort.Search(len(slices), func(k int) bool { return slices[k].to > st })
		if k < len(slices) && slices[k].from <= st {
			in = append(in, i)
		}
	}
	return in
}

// perOp divides a window total by its op count.
func (w *window) perOp(v float64) float64 {
	if w.ops == 0 {
		return 0
	}
	return v / float64(w.ops)
}

// runWindow drives inst with a closed loop of workers goroutines: each
// starts its next op as soon as the previous one returns, until its
// fixed op count is done or the budget has elapsed. A sampler goroutine
// reads the process's CPU time every sliceLen. With traced set, each op
// runs under a benchmark-owned root span on the worker's own tracer,
// drained whenever it is half full so no span is evicted.
func runWindow(inst instance, workers int, budget time.Duration, traced bool) (*window, error) {
	type perWorker struct {
		ops, failed int64
		log         *opLog
		end         time.Duration // when the worker's loop ended
		layers      *layerAcc
	}
	per := make([]perWorker, workers)
	for i := range per {
		log, err := newOpLog()
		if err != nil {
			for _, pw := range per[:i] {
				pw.log.records()
			}
			return nil, err
		}
		per[i].log = log
	}
	runtime.GC()
	win := &window{before: readUsage(), fixed: inst.fixedOps(0) >= 0}
	t0 := win.before.wall
	deadline := t0.Add(budget)

	stop := make(chan struct{})
	sampled := make(chan []tick)
	go func() {
		ticker := time.NewTicker(sliceLen)
		defer ticker.Stop()
		var ticks []tick
		for {
			select {
			case <-stop:
				sampled <- ticks
				return
			case now := <-ticker.C:
				ticks = append(ticks, tick{at: now.Sub(t0), cpu: processCPU(), host: readHostCPU()})
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pw := &per[w]
			var tr *obs.Tracer
			var keep map[int64]bool
			if traced {
				tr = obs.NewTracer(spanCap)
				pw.layers = newLayerAcc()
				keep = map[int64]bool{}
			}
			limit := inst.fixedOps(w)
			for i := int64(0); ; i++ {
				now := time.Now()
				if limit >= 0 && i >= limit || limit < 0 && !now.Before(deadline) {
					pw.end = now.Sub(t0)
					break
				}
				var root *obs.Span
				if tr != nil {
					root = tr.Start("op", obs.Int64("worker", int64(w)), obs.Int64("op", i))
				}
				out := inst.op(w, i, root)
				pw.ops++
				if !out.ok {
					pw.failed++
				}
				pw.log.add(opRecord{start: now.Sub(t0), lat: out.lat, cpu: out.cpu, hop: int64(out.hop)})
				if tr != nil {
					root.End()
					if len(keep) < maxSampledOps/workers && (i < 2 || i%256 == 0) {
						keep[i] = true
					}
					pw.layers.addOp(out)
					if total, _ := tr.Stats(); total >= spanCap/2 {
						pw.layers.drain(tr, true, keep)
					}
				}
			}
			if tr != nil {
				pw.layers.drain(tr, true, keep)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	win.ticks = <-sampled
	win.after = readUsage()
	win.elapsed = win.after.wall.Sub(t0)
	win.peakRSS = peakRSSMB()
	var firstErr error
	for i := range per {
		pw := &per[i]
		recs, err := pw.log.records()
		if err != nil {
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		win.ops += pw.ops
		win.failed += pw.failed
		tiles := make([]time.Duration, 0, len(recs)+1)
		for _, r := range recs {
			win.lat = append(win.lat, r.lat)
			win.cpu = append(win.cpu, r.cpu)
			win.starts = append(win.starts, r.start)
			if r.hop > 0 {
				win.hops = append(win.hops, int(r.hop))
			}
			tiles = append(tiles, r.start)
		}
		win.tiles = append(win.tiles, append(tiles, pw.end))
		if pw.layers != nil {
			if win.layers == nil {
				win.layers = newLayerAcc()
			}
			win.layers.merge(pw.layers)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return win, nil
}

// slice is the stretch of a window between two of its samples.
type slice struct {
	from, to time.Duration
	ops      float64 // completed, by the share of each op's time inside it
	cpu      time.Duration
	steal    float64 // share of the host's CPU time stolen in it
}

// slices cuts the window at its samples, in time order. An op counts in
// a slice by the share of its loop iteration that falls inside it, so a
// slice shorter than an op is not rounded to whole ops. The final,
// partial slice is kept only when there is no other.
func (w *window) slices() []slice {
	var slices []slice
	prev := tick{cpu: w.before.cpu, host: w.before.host}
	for _, t := range w.ticks {
		if t.at > w.elapsed {
			break
		}
		slices = append(slices, slice{from: prev.at, to: t.at, cpu: t.cpu - prev.cpu, steal: stealShare(prev.host, t.host)})
		prev = t
	}
	if len(slices) == 0 {
		slices = append(slices, slice{to: w.elapsed, cpu: w.after.cpu - w.before.cpu, steal: stealShare(w.before.host, w.after.host)})
	}
	for i := range slices {
		sl := &slices[i]
		for _, tiles := range w.tiles {
			for k := 0; k+1 < len(tiles); k++ {
				a, b := tiles[k], tiles[k+1]
				if b <= sl.from || a >= sl.to || b <= a {
					continue
				}
				sl.ops += float64(min(b, sl.to)-max(a, sl.from)) / float64(b-a)
			}
		}
	}
	return slices
}

// quietSlices keeps, in time order, the slices in which the hypervisor
// stole no larger share of the host's CPU time than in the window's
// median slice: at least half of them, and all of them when none was
// stolen. On a shared host, stolen time comes in bursts of seconds that
// stall the load and lengthen the ops that straddle them; it is the
// host's, not the program's, so the end-to-end figures leave it out.
func quietSlices(all []slice) []slice {
	shares := make([]float64, len(all))
	for i, sl := range all {
		shares[i] = sl.steal
	}
	limit := medianFloat(shares)
	var quiet []slice
	for _, sl := range all {
		if sl.steal <= limit {
			quiet = append(quiet, sl)
		}
	}
	return quiet
}

// meanSteal is the mean stolen share over slices (0 when empty).
func meanSteal(slices []slice) float64 {
	if len(slices) == 0 {
		return 0
	}
	sum := 0.0
	for _, sl := range slices {
		sum += sl.steal
	}
	return sum / float64(len(slices))
}

// hopGrowth is the median host latency of the last tenth of an
// itinerary's hops over that of the first tenth; 0 without hops.
func hopGrowth(lat []time.Duration, hops []int) float64 {
	if len(hops) != len(lat) || len(hops) == 0 {
		return 0
	}
	maxHop := 0
	for _, h := range hops {
		maxHop = max(maxHop, h)
	}
	tenth := max(maxHop/10, 1)
	var first, last []time.Duration
	for i, h := range hops {
		switch {
		case h <= tenth:
			first = append(first, lat[i])
		case h > maxHop-tenth:
			last = append(last, lat[i])
		}
	}
	f := medianDuration(first)
	if f <= 0 || len(last) == 0 {
		return 0
	}
	return float64(medianDuration(last)) / float64(f)
}
