package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles op_tail_ms may report, highest first.
// The benchmark reports the highest one that leaves at least
// minTailBeyond samples above it, so the tail is never a single outlier.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minTailBeyond is how many samples must lie beyond the tail percentile.
const minTailBeyond = 10

// nearestRank returns the nearest-rank percentile p (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for an empty slice.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
// The small tolerance keeps binary rounding of p (99.9 is not exact)
// from pushing an exact rank up by one.
func rankOf(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailPercentile picks the tail percentile for n samples: the highest
// ladder entry with at least minTailBeyond samples ranked above it. With
// too few samples for any entry it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= minTailBeyond {
			return p
		}
	}
	return 50
}

// latencySummary is the distribution of one window's op latencies.
type latencySummary struct {
	n       int
	p50     time.Duration
	tail    time.Duration
	tailPct float64
	beyond  int // samples ranked above the tail percentile
}

func summarize(lat []time.Duration) latencySummary {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := latencySummary{n: len(sorted)}
	if s.n == 0 {
		return s
	}
	s.tailPct = tailPercentile(s.n)
	s.p50 = nearestRank(sorted, 50)
	s.tail = nearestRank(sorted, s.tailPct)
	s.beyond = s.n - rankOf(s.n, s.tailPct)
	return s
}

// op_tail_ms is taken per group of consecutive ops. A group holds at
// least tailGroupOps ops, enough for p99 to have ten samples beyond it.
// A window of fewer ops than that (fleet's ops take about 100 ms each)
// is still cut into up to minTailGroups groups of at least minGroupOps,
// enough for p75 to have ten beyond, so that a burst of host noise
// moves one group's tail and not the median.
const (
	tailGroupOps  = 1000
	minTailGroups = 5
	minGroupOps   = 40
)

// tailGroups is how many groups groupedTail cuts n ops into.
func tailGroups(n int) int {
	if n >= tailGroupOps {
		return n / tailGroupOps
	}
	return max(1, min(minTailGroups, n/minGroupOps))
}

// groupedTail splits the ops, in the order they started, into
// tailGroups groups and returns the median over the groups of each
// group's tail latency. pct is the tail percentile of the smallest group
// and groups their number.
func groupedTail(lat, starts []time.Duration) (tail time.Duration, pct float64, groups int) {
	order := make([]int, len(lat))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return starts[order[a]] < starts[order[b]] })
	groups = tailGroups(len(lat))
	var tails []time.Duration
	pct = 100
	for g := 0; g < groups; g++ {
		var part []time.Duration
		for _, i := range order[g*len(lat)/groups : (g+1)*len(lat)/groups] {
			part = append(part, lat[i])
		}
		s := summarize(part)
		tails = append(tails, s.tail)
		pct = min(pct, s.tailPct)
	}
	return medianDuration(tails), pct, groups
}

// medianFloat returns the nearest-rank median of vs (0 when empty).
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return sorted[rankOf(len(sorted), 50)-1]
}

// medianDuration returns the nearest-rank median of ds (0 when empty).
func medianDuration(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return nearestRank(sorted, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
