package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"flux/internal/fleet"
	"flux/internal/migration"
)

// defaultSeed is the seed whose virtual outputs are stored in refs.json.
const defaultSeed = 1

// refsPath is where the stored references live, relative to the
// repository root the benchmark runs from.
const refsPath = "perfbench/refs.json"

// seedFreePrefix marks reference keys whose outputs do not depend on the
// seed (the seed only orders the matrix cells), so they are checked on
// every seed.
const seedFreePrefix = "matrix/"

// vdigest folds virtual outputs into a 64-bit FNV-1a hash. Integers are
// written at fixed width and strings with their length first, so no two
// distinct output tuples of the same shape encode alike.
type vdigest uint64

const (
	fnvOffset vdigest = 14695981039346656037
	fnvPrime  vdigest = 1099511628211
)

func newDigest() vdigest { return fnvOffset }

func (d *vdigest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*d ^= vdigest(byte(v >> (8 * i)))
		*d *= fnvPrime
	}
}

func (d *vdigest) ints(vs ...int64) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *vdigest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	for _, c := range b {
		*d ^= vdigest(c)
		*d *= fnvPrime
	}
}

func (d *vdigest) str(s string) { d.bytes([]byte(s)) }

// reportDigest is the virtual output of one migration: the Figure-13
// stage timings, the byte accounting, the replay statistics and the
// delta-migration cache verdicts.
func reportDigest(rep *migration.Report) vdigest {
	d := newDigest()
	for _, t := range rep.Timings {
		d.ints(int64(t))
	}
	rs := rep.ReplayStats
	d.ints(rep.TransferredBytes, rep.CompressedImageBytes, rep.ImageBytes,
		rep.RecordLogBytes, rep.DataDeltaBytes, rep.APKDeltaBytes, rep.PostCopyResidualBytes,
		int64(rs.Replayed), int64(rs.Proxied), int64(rs.SkippedExpired),
		int64(rs.SkippedMissingHW), int64(rs.Forwarded),
		int64(rep.CacheHits), int64(rep.CacheMisses), int64(rep.CacheRollingHits),
		int64(rep.CachePoisoned), rep.CacheBytesNotShipped, rep.CacheDeltaBytes,
		rep.CacheNegotiationBytes, int64(rep.PipelineChunks), int64(rep.PipelineSavings),
		int64(rep.Retries))
	d.str(rep.Outcome)
	return d
}

// fleetDigest is the virtual output of one fleet run: its rendered report.
func fleetDigest(rep *fleet.Report) (vdigest, error) {
	data, err := rep.Render()
	if err != nil {
		return 0, err
	}
	d := newDigest()
	d.bytes(data)
	return d, nil
}

// checker is the virtual-output correctness gate. Each op names its
// output with a key; the first digest seen for a key must equal the
// stored reference (when one applies to this seed), and every later
// execution of the same key must equal the first.
type checker struct {
	refs map[string]string // references that apply to this run's seed

	mu       sync.Mutex
	first    map[string]string
	failures int
	firstErr string
}

// newChecker keeps the references that apply to seed: all of them on the
// default seed, the seed-free ones on any other.
func newChecker(refs map[string]string, seed int64) *checker {
	c := &checker{refs: map[string]string{}, first: map[string]string{}}
	for k, v := range refs {
		if seed == defaultSeed || strings.HasPrefix(k, seedFreePrefix) {
			c.refs[k] = v
		}
	}
	return c
}

// check records digest sum for key and reports whether it agrees with the
// reference and with every earlier execution of key.
func (c *checker) check(key string, sum vdigest) bool {
	got := fmt.Sprintf("%016x", uint64(sum))
	c.mu.Lock()
	defer c.mu.Unlock()
	want, seen := c.first[key]
	why := "its first execution"
	if !seen {
		c.first[key] = got
		want, seen = c.refs[key]
		why = "the stored reference"
	}
	if seen && want != got {
		c.failLocked(fmt.Sprintf("%s: digest %s, %s has %s", key, got, why, want))
		return false
	}
	return true
}

// fail records a correctness failure that is not a digest comparison.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(fmt.Sprintf(format, args...))
}

func (c *checker) failLocked(msg string) {
	c.failures++
	if c.firstErr == "" {
		c.firstErr = msg
	}
}

// result reports how many checks failed and the first failure.
func (c *checker) result() (int, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures, c.firstErr
}

// digests returns the first digest of every key this run produced.
func (c *checker) digests() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.first))
	for k, v := range c.first {
		out[k] = v
	}
	return out
}

// refsFile is the on-disk form of refs.json.
type refsFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadRefs(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var f refsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if f.Seed != defaultSeed {
		return nil, fmt.Errorf("%s holds seed %d, want %d", path, f.Seed, defaultSeed)
	}
	return f.Digests, nil
}

// writeRefs replaces every reference under the workload's prefix with
// digests, keeping the other workloads' references.
func writeRefs(path, prefix string, old, digests map[string]string) error {
	f := refsFile{Seed: defaultSeed, Digests: map[string]string{}}
	for k, v := range old {
		if !strings.HasPrefix(k, prefix) {
			f.Digests[k] = v
		}
	}
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f.Digests[k] = digests[k]
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
