// Package record implements Flux's Selective Record mechanism (paper §3.2).
//
// A Recorder interposes on Binder transactions (via binder.Interposer) and
// consults the compiled decoration rules of each registered service
// interface. Calls to @record-decorated methods are appended to a per-app
// call log; each new call first evaluates its @drop/@if clauses against the
// log and removes entries it has made stale, keeping the log small.
//
// Drop semantics (from Table 1 and Figures 7/9 of the paper, with one
// clarification): when a call to method M matches previously recorded calls
// of the methods in M's @drop list — a previous call matches if, for any one
// @if/@elif signature, every named argument is equal — the matching entries
// are removed from the log. The keyword "this" makes M itself a drop
// target. Additionally, if "this" is in the drop list and the match removed
// an entry of a method *other than* M, the triggering call itself is not
// recorded: the pair annihilated each other (enqueueNotification +
// cancelNotification). A match that only removed previous calls to M itself
// records the new call, because it *replaces* the old state
// (IAlarmManager.set called twice with the same PendingIntent).
//
// Because the recorder sits on every decorated Binder transaction, the
// package treats recording as a hot path: the call log is sharded per app
// (see log.go), @drop evaluation consults a per-(interface, method) index
// instead of scanning the log, and each entry caches the canonical string
// form of its arguments at append time so signature matching never
// re-parses parcels under a lock.
package record

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/obs"
)

// Entry is one recorded service call.
type Entry struct {
	Seq       uint64
	App       string // package name of the calling app
	Service   string // ServiceManager registration name
	Interface string // interface descriptor
	Method    string
	Code      uint32
	Handle    binder.Handle // caller-side handle the call was issued on
	At        time.Time     // virtual time of the call
	Data      []byte        // marshalled request parcel
	Reply     []byte        // marshalled reply parcel; nil for oneway calls

	// args caches the canonical string form of each request argument,
	// keyed by parameter name — the values @if signature guards compare.
	// The Recorder fills it at append time from the live parcel; entries
	// loaded from disk or appended directly compute it lazily on first
	// signature match. Immutable once set; guarded by the shard lock
	// until then.
	args map[string]string

	// dead marks a tombstoned entry awaiting compaction. Guarded by the
	// owning shard's lock; entries returned by AppEntries are copies and
	// always live.
	dead bool
}

// ReplyParcel decodes the entry's reply parcel, or returns nil for oneway.
func (e *Entry) ReplyParcel() (*binder.Parcel, error) {
	if e.Reply == nil {
		return nil, nil
	}
	return binder.UnmarshalParcel(e.Reply)
}

// Parcel decodes the entry's request parcel.
func (e *Entry) Parcel() (*binder.Parcel, error) {
	return binder.UnmarshalParcel(e.Data)
}

// Size returns the entry's serialized size in bytes, used for transfer
// accounting during migration.
func (e *Entry) Size() int {
	return 8 + 4 + 4 + 8 + // seq, code, handle, time
		4*4 + len(e.App) + len(e.Service) + len(e.Interface) + len(e.Method) +
		4 + len(e.Data) + 4 + len(e.Reply)
}

// cacheArgs extracts the canonical string form of every parameter of m
// from the request parcel, the precomputation that lets @if matching skip
// parcel parsing. Parameters whose value cannot be rendered are simply
// absent, which makes them match nothing — the same outcome the parsing
// path produced on error.
func cacheArgs(m *aidl.Method, data *binder.Parcel) map[string]string {
	args := make(map[string]string, len(m.Params))
	for i, p := range m.Params {
		if v, err := data.EntryString(i); err == nil {
			args[p.Name] = v
		}
	}
	return args
}

// argValues returns the entry's cached argument strings, computing them
// from the request parcel on first use. Callers must hold the owning
// shard's lock (the Log's pruning predicates do), which also publishes
// the memoized map safely.
func (e *Entry) argValues(m *aidl.Method) map[string]string {
	if e.args == nil {
		p, err := binder.UnmarshalParcel(e.Data)
		if err != nil {
			e.args = map[string]string{} // malformed: matches nothing
		} else {
			e.args = cacheArgs(m, p)
		}
	}
	return e.args
}

// maxEntryPrealloc bounds the slice capacity hinted by an untrusted
// entry count, so a forged header cannot drive a multi-gigabyte
// allocation before the first decode failure.
const maxEntryPrealloc = 1 << 16

// UnmarshalEntries decodes a log slice serialized by MarshalApp.
func UnmarshalEntries(data []byte) ([]*Entry, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("record: truncated log: %d bytes", len(data))
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	prealloc := int(n)
	if prealloc > maxEntryPrealloc {
		prealloc = maxEntryPrealloc
	}
	out := make([]*Entry, 0, prealloc)
	for i := uint32(0); i < n; i++ {
		e, consumed, err := decodeEntry(data)
		if err != nil {
			return nil, fmt.Errorf("record: entry %d: %w", i, err)
		}
		data = data[consumed:]
		out = append(out, e)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("record: %d trailing bytes after log", len(data))
	}
	return out, nil
}

// SplitEntries slices a MarshalApp blob into its per-entry wire
// records without copying. These per-entry slices are exactly the
// payloads the seglog hash chain is computed over, so the home device
// (building the anchor) and the guest (verifying before replay) frame
// the log identically.
func SplitEntries(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("record: truncated log: %d bytes", len(data))
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	prealloc := int(n)
	if prealloc > maxEntryPrealloc {
		prealloc = maxEntryPrealloc
	}
	out := make([][]byte, 0, prealloc)
	for i := uint32(0); i < n; i++ {
		_, consumed, err := decodeEntry(data)
		if err != nil {
			return nil, fmt.Errorf("record: entry %d: %w", i, err)
		}
		out = append(out, data[:consumed])
		data = data[consumed:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("record: %d trailing bytes after log", len(data))
	}
	return out, nil
}

// decodeEntry decodes one entry from the head of data, returning the
// bytes consumed. All length guards compare in uint64 space: the old
// `uint32(len(data)) < l` form wrapped for buffers ≥ 4 GiB and could
// accept a short read.
func decodeEntry(data []byte) (*Entry, int, error) {
	const fixed = 24 // seq, code, handle, time
	if len(data) < fixed {
		return nil, 0, fmt.Errorf("record: truncated entry header")
	}
	e := &Entry{}
	e.Seq = binary.BigEndian.Uint64(data)
	e.Code = binary.BigEndian.Uint32(data[8:])
	e.Handle = binder.Handle(int32(binary.BigEndian.Uint32(data[12:])))
	e.At = time.Unix(0, int64(binary.BigEndian.Uint64(data[16:]))).UTC()
	off := fixed
	readStr := func() (string, error) {
		if uint64(len(data))-uint64(off) < 4 {
			return "", fmt.Errorf("record: truncated string length")
		}
		l := binary.BigEndian.Uint32(data[off:])
		off += 4
		if uint64(l) > uint64(len(data)-off) {
			return "", fmt.Errorf("record: string declares %d bytes, %d remain", l, len(data)-off)
		}
		s := string(data[off : off+int(l)])
		off += int(l)
		return s, nil
	}
	var err error
	if e.App, err = readStr(); err != nil {
		return nil, 0, err
	}
	if e.Service, err = readStr(); err != nil {
		return nil, 0, err
	}
	if e.Interface, err = readStr(); err != nil {
		return nil, 0, err
	}
	if e.Method, err = readStr(); err != nil {
		return nil, 0, err
	}
	if uint64(len(data))-uint64(off) < 4 {
		return nil, 0, fmt.Errorf("record: truncated payload length")
	}
	l := binary.BigEndian.Uint32(data[off:])
	off += 4
	if uint64(l) > uint64(len(data)-off) {
		return nil, 0, fmt.Errorf("record: payload declares %d bytes, %d remain", l, len(data)-off)
	}
	e.Data = append([]byte(nil), data[off:off+int(l)]...)
	off += int(l)
	if uint64(len(data))-uint64(off) < 4 {
		return nil, 0, fmt.Errorf("record: truncated reply length")
	}
	rl := binary.BigEndian.Uint32(data[off:])
	off += 4
	if rl != ^uint32(0) {
		if uint64(rl) > uint64(len(data)-off) {
			return nil, 0, fmt.Errorf("record: reply declares %d bytes, %d remain", rl, len(data)-off)
		}
		// A zero-length reply decodes to a non-nil empty slice so the
		// nil-means-oneway sentinel round-trips: EntryWire(decodeEntry(w))
		// == w, which anchor verification on the guest depends on.
		e.Reply = append(make([]byte, 0, rl), data[off:off+int(rl)]...)
		off += int(rl)
	}
	return e, off, nil
}

// registeredInterface couples an interface with its ServiceManager name.
// The itf and service fields are immutable after registration; full is
// guarded by the Recorder's mutex. The record rules are read straight off
// each method's own decoration (aidl.Method.Record), so registration
// copies nothing.
type registeredInterface struct {
	itf     *aidl.Interface
	service string
	full    bool // record every method (ablation mode)
}

// Recorder implements Selective Record. Install it on a device's Binder
// driver with driver.AddInterposer(recorder).
type Recorder struct {
	log *Log
	now func() time.Time

	mu         sync.RWMutex
	pkgOf      func(pid int) (string, bool)
	interfaces map[string]*registeredInterface // by descriptor
	paused     map[string]bool                 // apps with recording paused (mid-migration)

	observed atomic.Uint64 // all decorated-interface calls seen
	recorded atomic.Uint64 // calls actually appended
	dropped  atomic.Uint64 // triggering calls suppressed by @drop("this") annihilation
}

// Config carries the Recorder's environment hooks.
type Config struct {
	// Now supplies virtual time for entry timestamps.
	Now func() time.Time
	// PackageOf resolves a calling pid to its app package name. Calls from
	// unresolvable pids (system daemons) are not recorded.
	PackageOf func(pid int) (string, bool)
}

// NewRecorder creates a Recorder writing to log.
func NewRecorder(log *Log, cfg Config) *Recorder {
	if cfg.Now == nil {
		panic("record: Config.Now is required")
	}
	if cfg.PackageOf == nil {
		panic("record: Config.PackageOf is required")
	}
	return &Recorder{
		log:        log,
		now:        cfg.Now,
		pkgOf:      cfg.PackageOf,
		interfaces: make(map[string]*registeredInterface),
		paused:     make(map[string]bool),
	}
}

// Log returns the recorder's backing call log.
func (r *Recorder) Log() *Log { return r.log }

// SetPackageResolver replaces the pid→package hook. The device assembly
// needs this because the recorder must exist before the framework runtime
// that provides the real resolver.
func (r *Recorder) SetPackageResolver(fn func(pid int) (string, bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pkgOf = fn
}

// RegisterInterface makes the recorder aware of a decorated service
// interface registered under the given ServiceManager name.
func (r *Recorder) RegisterInterface(serviceName string, itf *aidl.Interface) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.interfaces[itf.Name] = &registeredInterface{itf: itf, service: serviceName}
}

// SetFullRecord switches an interface to full (undecorated) recording,
// the baseline for the selective-vs-full ablation.
func (r *Recorder) SetFullRecord(descriptor string, full bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reg, ok := r.interfaces[descriptor]; ok {
		reg.full = full
	}
}

// Pause stops recording for one app while it migrates out.
func (r *Recorder) Pause(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused[app] = true
}

// Resume re-enables recording for an app.
func (r *Recorder) Resume(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.paused, app)
}

// Stats summarizes the recorder's lifetime counters.
type Stats struct {
	// Observed counts every call seen on a decorated interface
	// (including undecorated methods of those interfaces).
	Observed uint64
	// Recorded counts calls actually appended to the log.
	Recorded uint64
	// DroppedByRule counts triggering calls suppressed before ever
	// reaching the log: a @drop list containing "this" matched a
	// previous call of another method, annihilating the pair
	// (enqueueNotification + cancelNotification).
	DroppedByRule uint64
	// Pruned counts previously recorded entries that @drop evaluation
	// later removed from the log (the log-bounding savings of Selective
	// Record). Wholesale DropApp cleanup is excluded.
	Pruned uint64
}

// Stats reports the recorder's observed/recorded/dropped/pruned
// counters (after selective suppression).
func (r *Recorder) Stats() Stats {
	return Stats{
		Observed:      r.observed.Load(),
		Recorded:      r.recorded.Load(),
		DroppedByRule: r.dropped.Load(),
		Pruned:        r.log.DroppedTotal(),
	}
}

// ObserveTransaction implements binder.Interposer. It takes only read
// locks on the recorder, so transactions from different apps proceed in
// parallel; all per-call mutable state lives in the sharded log.
func (r *Recorder) ObserveTransaction(callingPID int, node *binder.Node, call *binder.Call) {
	r.mu.RLock()
	reg, ok := r.interfaces[node.Descriptor()]
	pkgOf := r.pkgOf
	r.mu.RUnlock()
	if !ok {
		return
	}
	app, ok := pkgOf(callingPID)
	if !ok {
		return
	}
	r.mu.RLock()
	paused := r.paused[app]
	full := reg.full
	r.mu.RUnlock()
	if paused {
		return
	}
	r.observed.Add(1)
	telemetry := obs.Enabled()
	if telemetry {
		obs.M().Counter(MetricObserved, "service", reg.service).Inc()
	}

	m := reg.itf.MethodByCode(call.Code)
	if m == nil {
		return
	}
	if full {
		r.append(app, reg, m, call)
		return
	}
	if m.Record == nil {
		return
	}
	suppress := r.applyDrops(app, reg, m, call)
	if suppress {
		r.dropped.Add(1)
		if telemetry {
			obs.M().Counter(MetricSuppressed, "service", reg.service).Inc()
		}
		return
	}
	r.append(app, reg, m, call)
}

// applyDrops evaluates the decorated method's drop clauses against the log
// and reports whether the triggering call itself should be suppressed. It
// visits only the index buckets of the drop-target methods and compares
// cached argument strings, never re-parsing a recorded parcel.
func (r *Recorder) applyDrops(app string, reg *registeredInterface, m *aidl.Method, call *binder.Call) bool {
	spec := m.Record
	if len(spec.DropMethods) == 0 {
		return false
	}
	seen := make(map[string]bool, len(spec.DropMethods))
	targets := make([]string, 0, len(spec.DropMethods))
	for _, name := range spec.DropMethods {
		if name == "this" {
			name = m.Name
		}
		if !seen[name] {
			seen[name] = true
			targets = append(targets, name)
		}
	}
	// Precompute the triggering call's signature values from its live
	// parcel.
	sigVals := make([]map[string]string, len(spec.Signatures))
	for i, sig := range spec.Signatures {
		vals := make(map[string]string, len(sig))
		for _, arg := range sig {
			v, err := aidl.ArgString(m, call.Data, arg)
			if err != nil {
				return false // malformed call; record nothing, drop nothing
			}
			vals[arg] = v
		}
		sigVals[i] = vals
	}
	droppedOther := false
	removed := r.log.PruneMatching(app, reg.itf.Name, targets, func(e *Entry) bool {
		em := reg.itf.Method(e.Method)
		if em == nil {
			return false
		}
		if len(spec.Signatures) == 0 {
			if e.Method != m.Name {
				droppedOther = true
			}
			return true
		}
		vals := e.argValues(em)
		for i, sig := range spec.Signatures {
			match := true
			for _, arg := range sig {
				if ev, ok := vals[arg]; !ok || ev != sigVals[i][arg] {
					match = false
					break
				}
			}
			if match {
				if e.Method != m.Name {
					droppedOther = true
				}
				return true
			}
		}
		return false
	})
	if removed > 0 && obs.Enabled() {
		obs.M().Counter(MetricPruned, "service", reg.service).Add(uint64(removed))
	}
	return spec.DropsSelf() && droppedOther
}

func (r *Recorder) append(app string, reg *registeredInterface, m *aidl.Method, call *binder.Call) {
	e := &Entry{
		App:       app,
		Service:   reg.service,
		Interface: reg.itf.Name,
		Method:    m.Name,
		Code:      call.Code,
		Handle:    call.Handle,
		At:        r.now(),
		Data:      call.Data.Marshal(),
		args:      cacheArgs(m, call.Data),
	}
	if call.Reply != nil {
		e.Reply = call.Reply.Marshal()
	}
	r.log.Append(e)
	r.recorded.Add(1)
	if obs.Enabled() {
		obs.M().Counter(MetricRecorded, "service", reg.service).Inc()
	}
}
