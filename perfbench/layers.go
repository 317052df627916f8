package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"flux/internal/obs"
)

const (
	// spanCap is each traced worker's span ring. A worker drains its
	// ring once it is half full, so an op must emit fewer than spanCap/2
	// spans for none to be dropped; obs.spans_dropped reports any that were.
	spanCap = 1 << 16
	// maxSampledOps bounds how many ops' span trees the Chrome trace keeps.
	maxSampledOps = 16
)

// spanAgg sums the spans of one name.
type spanAgg struct {
	n          int64
	wall, self time.Duration
}

// layerAcc accumulates a traced run's spans and layer counts.
type layerAcc struct {
	ops     int64
	window  map[string]*spanAgg // spans of timed ops
	all     map[string]*spanAgg // window and traced set-up
	dropped uint64
	sampled []obs.SpanData

	migrations, wireBytes, imageBytes int64
	pipelineChunks, replayEntries     int64
	cacheHits, cacheMisses            int64 // full and rolling hits; misses
	observed, recorded, pruned        uint64
	liveSum                           float64
	events                            uint64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{window: map[string]*spanAgg{}, all: map[string]*spanAgg{}}
}

// drain empties tr into the accumulator. inWindow marks spans of timed
// ops; keep names the op indices whose whole trees go to the Chrome trace.
func (la *layerAcc) drain(tr *obs.Tracer, inWindow bool, keep map[int64]bool) {
	spans := tr.Snapshot()
	_, dropped := tr.Stats()
	tr.Reset()
	la.dropped += dropped
	keptRoots := map[uint64]bool{}
	for _, s := range spans {
		if s.Parent == 0 && keep[opIndex(s)] {
			keptRoots[s.ID] = true
		}
	}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		addSpan(la.all, s.Name, s.Wall(), self)
		if inWindow {
			addSpan(la.window, s.Name, s.Wall(), self)
		}
		if keptRoots[s.Root] {
			la.sampled = append(la.sampled, s)
		}
	}
}

// opIndex is the op attribute of a benchmark root span, or -1.
func opIndex(s obs.SpanData) int64 {
	for _, a := range s.Attrs {
		if v, ok := a.Value.(int64); ok && a.Key == "op" {
			return v
		}
	}
	return -1
}

// addOp adds one traced op's layer counts.
func (la *layerAcc) addOp(out opOut) {
	la.ops++
	for _, rep := range out.reps {
		la.migrations++
		la.wireBytes += rep.CompressedImageBytes
		la.imageBytes += rep.ImageBytes
		la.pipelineChunks += int64(rep.PipelineChunks)
		la.replayEntries += int64(rep.ReplayStats.Total())
		la.cacheHits += int64(rep.CacheHits + rep.CacheRollingHits)
		la.cacheMisses += int64(rep.CacheMisses)
	}
	la.observed += out.rec.observed
	la.recorded += out.rec.recorded
	la.pruned += out.rec.pruned
	la.liveSum += out.rec.live
	la.events += out.events
}

func (la *layerAcc) merge(o *layerAcc) {
	la.ops += o.ops
	mergeAggs(la.window, o.window)
	mergeAggs(la.all, o.all)
	la.dropped += o.dropped
	la.sampled = append(la.sampled, o.sampled...)
	la.migrations += o.migrations
	la.wireBytes += o.wireBytes
	la.imageBytes += o.imageBytes
	la.pipelineChunks += o.pipelineChunks
	la.replayEntries += o.replayEntries
	la.cacheHits += o.cacheHits
	la.cacheMisses += o.cacheMisses
	la.observed += o.observed
	la.recorded += o.recorded
	la.pruned += o.pruned
	la.liveSum += o.liveSum
	la.events += o.events
}

func mergeAggs(dst, src map[string]*spanAgg) {
	for name, a := range src {
		d := dst[name]
		if d == nil {
			d = &spanAgg{}
			dst[name] = d
		}
		d.n += a.n
		d.wall += a.wall
		d.self += a.self
	}
}

func addSpan(m map[string]*spanAgg, name string, wall, self time.Duration) {
	a := m[name]
	if a == nil {
		a = &spanAgg{}
		m[name] = a
	}
	a.n++
	a.wall += wall
	a.self += self
}

// selfTimes returns each span's self time on the wall axis: its duration
// minus the part of it that the union of its children's intervals covers.
func selfTimes(spans []obs.SpanData) []time.Duration {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	var iv [][2]time.Time
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[s.ID] {
			start, end := spans[c].StartWall, spans[c].EndWall
			if start.Before(s.StartWall) {
				start = s.StartWall
			}
			if end.After(s.EndWall) {
				end = s.EndWall
			}
			if end.After(start) {
				iv = append(iv, [2]time.Time{start, end})
			}
		}
		out[i] = s.Wall() - unionLength(iv)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]time.Time) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = v
			continue
		}
		if v[1].After(cur[1]) {
			cur[1] = v[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// perMigrationMS is the named spans' summed self time per migration of
// the timed window, in ms.
func (la *layerAcc) perMigrationMS(name string) float64 {
	a := la.window[name]
	if a == nil || la.migrations == 0 {
		return 0
	}
	return ms(a.self) / float64(la.migrations)
}

// perCallMS is the mean wall time of one named span, set-up included.
func (la *layerAcc) perCallMS(name string) float64 {
	a := la.all[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return ms(a.wall) / float64(a.n)
}

// perOp divides a count by the number of traced ops.
func (la *layerAcc) perOp(v float64) float64 {
	if la.ops == 0 {
		return 0
	}
	return v / float64(la.ops)
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the sampled ops as Chrome trace-event JSON on
// the host (wall) time axis, one row per op, with the run's provenance
// under otherData.
func writeChromeTrace(path string, prov provenance, spans []obs.SpanData) error {
	var origin time.Time
	for i, s := range spans {
		if i == 0 || s.StartWall.Before(origin) {
			origin = s.StartWall
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name:  s.Name,
			Phase: "X",
			TS:    float64(s.StartWall.Sub(origin).Nanoseconds()) / 1e3,
			Dur:   float64(s.Wall().Nanoseconds()) / 1e3,
			PID:   1,
			TID:   s.Root,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       provenance    `json:"otherData"`
	}{events, "ms", prov})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
