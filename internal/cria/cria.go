// Package cria implements Checkpoint/Restore In Android (paper §3.3): a
// CRIU-style process checkpointer extended with the Android-specific state
// Flux must carry across devices — the Binder handle table (classified into
// context-manager, system-service, app-internal, and replay-restorable
// references), the descriptor table, memory segments, the framework
// runtime snapshot, and the pruned record log. Restore reconstructs the
// process inside a private PID namespace so the app keeps its pids, injects
// Binder references at their original handle ids (re-bound by name through
// the guest's ServiceManager), and reserves descriptor numbers for the
// replay proxies to fill.
package cria

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"flux/internal/android"
	"flux/internal/binder"
	"flux/internal/kernel"
	"flux/internal/obs"
	"flux/internal/record"
)

// HandleKind classifies one Binder reference in the checkpoint image.
type HandleKind uint8

const (
	// HandleContextManager is the well-known handle 0.
	HandleContextManager HandleKind = iota
	// HandleSystemService references a ServiceManager-registered service;
	// restore re-binds it by name on the guest.
	HandleSystemService
	// HandleInternal references a node owned by the app's own processes;
	// restore re-publishes it.
	HandleInternal
	// HandleReplayRestorable references an unnamed system-owned node whose
	// interface has replay-proxy support (SensorEventConnection); restore
	// leaves the slot empty for the reintegration phase to fill.
	HandleReplayRestorable
)

func (k HandleKind) String() string {
	switch k {
	case HandleContextManager:
		return "context-manager"
	case HandleSystemService:
		return "system-service"
	case HandleInternal:
		return "internal"
	case HandleReplayRestorable:
		return "replay-restorable"
	}
	return fmt.Sprintf("handlekind(%d)", uint8(k))
}

// HandleRecord is one handle-table row in the image.
type HandleRecord struct {
	Handle      binder.Handle
	Kind        HandleKind
	ServiceName string // for HandleSystemService
	Descriptor  string
}

// Image is a CRIA checkpoint: everything needed to reconstruct the app on
// a paired guest device. It is gob-serializable; payload bytes of memory
// segments are carried as (size, entropy) descriptors per the simulation's
// substitution rule, with sizes accounted exactly.
type Image struct {
	Pkg            string
	Spec           android.AppSpec
	HomeDevice     string
	CheckpointTime time.Time
	VPID           int

	Segments []kernel.MemSegment
	FDs      []kernel.FD
	Handles  []HandleRecord
	Ashmem   []kernel.AshmemRegion
	Runtime  android.RuntimeState

	// RecordLog is the app's pruned Selective Record log (record.MarshalApp).
	RecordLog []byte
	// LogAnchor is the marshalled seglog anchor over RecordLog's entries
	// (chain head + segment Merkle roots, DESIGN.md §5j). When present,
	// Restore verifies RecordLog against it before anything replays, and
	// Marshal emits the FXC4 container revision to carry it. Empty by
	// default so anchor-free images keep FXC2/FXC3's exact wire bytes.
	LogAnchor []byte
	// HomeVolumeSteps parameterizes the audio replay proxy.
	HomeVolumeSteps int32

	// mu guards the memoized serialization (see Marshal/WireBytes in
	// marshal.go). Unexported fields are invisible to gob.
	mu         sync.Mutex
	cachedWire []byte
	// contentDigests selects the FXC3 container revision: per-block
	// SHA-256 content digests for the delta-migration chunk cache. Off by
	// default so cache-disabled runs keep FXC2's exact wire bytes.
	contentDigests bool
}

// SetContentDigests selects (or deselects) the FXC3 content-addressed
// container revision for this image's Marshal output. Flipping it
// invalidates any memoized serialization; call it before the first
// WireBytes/Marshal on the migration hot path.
func (img *Image) SetContentDigests(on bool) {
	img.mu.Lock()
	if img.contentDigests != on {
		img.contentDigests = on
		img.cachedWire = nil
	}
	img.mu.Unlock()
}

// SetLogAnchor attaches (or clears) the record-log anchor, invalidating
// any memoized serialization — the container revision depends on it.
func (img *Image) SetLogAnchor(anchor []byte) {
	img.mu.Lock()
	if !bytes.Equal(img.LogAnchor, anchor) {
		img.LogAnchor = anchor
		img.cachedWire = nil
	}
	img.mu.Unlock()
}

// ErrLogTampered reports a record log that does not verify against the
// image's anchor: some bit of the log the guest received is not what
// the home device recorded. Migration rolls back on it — a wrong replay
// is never attempted.
var ErrLogTampered = errors.New("cria: record log does not match its anchor")

// ErrNonSystemConnection reports an app holding Binder connections to
// non-system services; Flux refuses to migrate such apps (paper §3.3).
var ErrNonSystemConnection = errors.New("cria: app holds Binder connection to a non-system service")

// ErrMultiProcess reports a multi-process app with multi-process support
// disabled (the paper's Facebook failure).
var ErrMultiProcess = errors.New("cria: app runs multiple processes")

// ErrProviderBusy reports an in-flight ContentProvider transaction.
var ErrProviderBusy = errors.New("cria: app is mid-ContentProvider transaction")

// ErrDeviceStateResident reports device-specific state that survived the
// preparation phase; checkpointing would not be portable.
var ErrDeviceStateResident = errors.New("cria: device-specific state still resident")

// ErrCommonSDCard reports open files in the shared SD card area, which is
// not migrated (paper §3.4: only app-specific SD directories travel).
var ErrCommonSDCard = errors.New("cria: app holds open files on the common SD card area")

// Options configures a checkpoint.
type Options struct {
	// HomeDevice names the device taking the checkpoint.
	HomeDevice string
	// ServiceManager resolves nodes to registered service names.
	ServiceManager *binder.ServiceManager
	// Recorder supplies the app's pruned call log.
	Recorder *record.Recorder
	// Now is the home device's virtual clock.
	Now func() time.Time
	// HomeVolumeSteps is the home audio step count.
	HomeVolumeSteps int32
	// ReplayRestorable lists interface descriptors whose unnamed system
	// connections are rebuilt by replay proxies rather than checkpointed.
	ReplayRestorable map[string]bool
	// AllowMultiProcess enables process-tree checkpointing — the paper's
	// future-work extension, off by default to match the evaluation.
	AllowMultiProcess bool
	// AnchorLog embeds a seglog anchor over the record log in the image
	// (FXC4 container), so the guest verifies the log before replay. Off
	// by default: anchor-free images keep their exact FXC2/FXC3 wire bytes.
	AnchorLog bool
	// SystemPIDs identifies system-owned processes (system_server, pid 0)
	// whose unnamed nodes may be replay-restorable.
	SystemPIDs map[int]bool
	// Span optionally parents the checkpoint's telemetry sections (the
	// migration pipeline passes its checkpoint stage span). Nil-safe.
	Span *obs.Span
}

// Checkpoint captures app into a portable image. The app must already have
// gone through Flux's preparation phase (background → trim → eglUnload);
// any device-specific residue fails the checkpoint.
func Checkpoint(app *android.App, opts Options) (*Image, error) {
	if opts.ServiceManager == nil || opts.Recorder == nil || opts.Now == nil {
		return nil, fmt.Errorf("cria: ServiceManager, Recorder and Now are required")
	}
	procs := app.Processes()
	if len(procs) > 1 && !opts.AllowMultiProcess {
		return nil, fmt.Errorf("%w: %d processes", ErrMultiProcess, len(procs))
	}
	if app.ProviderBusy() {
		return nil, ErrProviderBusy
	}
	if resident := app.DeviceSpecificResident(); len(resident) != 0 {
		return nil, fmt.Errorf("%w: %v", ErrDeviceStateResident, resident)
	}
	if open := app.CommonSDFilesOpen(); len(open) != 0 {
		return nil, fmt.Errorf("%w: %v", ErrCommonSDCard, open)
	}

	logSec := opts.Span.Child("cria.record_log")
	img := &Image{
		Pkg:             app.Package(),
		Spec:            app.Spec(),
		HomeDevice:      opts.HomeDevice,
		CheckpointTime:  opts.Now(),
		VPID:            procs[0].PID(),
		Runtime:         app.RuntimeState(),
		HomeVolumeSteps: opts.HomeVolumeSteps,
		RecordLog:       opts.Recorder.Log().MarshalApp(app.Package()),
	}
	if opts.AnchorLog {
		anchor, err := record.AnchorWire(img.RecordLog)
		if err != nil {
			logSec.End()
			return nil, fmt.Errorf("cria: anchoring record log: %w", err)
		}
		img.LogAnchor = anchor
	}
	logSec.Attr(obs.Int64("bytes", int64(len(img.RecordLog)))).End()

	appPIDs := make(map[int]bool, len(procs))
	for _, p := range procs {
		appPIDs[p.PID()] = true
	}
	main := procs[0]
	// Memory: heap and ashmem segments are checkpointed; code segments are
	// file-backed (the pairing phase ships the files); graphics segments
	// were freed by preparation (verified above).
	memSec := opts.Span.Child("cria.memory")
	for _, seg := range main.Segments() {
		if seg.Kind == kernel.SegHeap || seg.Kind == kernel.SegAshmem {
			img.Segments = append(img.Segments, seg)
		}
	}
	for _, fd := range main.FDs() {
		img.FDs = append(img.FDs, fd)
	}
	memSec.Attr(
		obs.Int64("segments", int64(len(img.Segments))),
		obs.Int64("fds", int64(len(img.FDs))),
		obs.Int64("payload_bytes", img.PayloadBytes()),
	).End()
	// Binder handle classification (paper Figure 11).
	handleSec := opts.Span.Child("cria.handle_table")
	for _, he := range main.Binder().Handles() {
		rec := HandleRecord{Handle: he.Handle, Descriptor: he.Descriptor}
		switch {
		case he.Handle == binder.ContextManagerHandle:
			rec.Kind = HandleContextManager
		case appPIDs[he.OwnerPID]:
			rec.Kind = HandleInternal
		default:
			name := ""
			if node, err := main.Binder().Node(he.Handle); err == nil {
				name = opts.ServiceManager.NameOf(node)
			}
			switch {
			case name != "":
				rec.Kind = HandleSystemService
				rec.ServiceName = name
			case opts.ReplayRestorable[he.Descriptor] && opts.SystemPIDs[he.OwnerPID]:
				rec.Kind = HandleReplayRestorable
			default:
				handleSec.End()
				return nil, fmt.Errorf("%w: handle %d → %s (owner pid %d)",
					ErrNonSystemConnection, he.Handle, he.Descriptor, he.OwnerPID)
			}
		}
		img.Handles = append(img.Handles, rec)
	}
	handleSec.Attr(obs.Int64("handles", int64(len(img.Handles)))).End()
	return img, nil
}

// PayloadBytes is the raw size of checkpointed memory.
func (img *Image) PayloadBytes() int64 {
	var n int64
	for _, s := range img.Segments {
		n += s.Size
	}
	return n
}

// CompressedPayloadBytes is the memory payload's wire size after DEFLATE.
func (img *Image) CompressedPayloadBytes() int64 {
	var n int64
	for _, s := range img.Segments {
		n += s.CompressedSize()
	}
	return n
}

// RestoreOptions configures a restore.
type RestoreOptions struct {
	// Runtime is the guest device's framework runtime.
	Runtime *android.Runtime
	// Entries returns the deserialized record log (for callers that have
	// already parsed it); nil means parse from the image.
	Entries []*record.Entry
	// Span optionally parents the restore's telemetry sections (the
	// migration pipeline passes its restore stage span). Nil-safe.
	Span *obs.Span
}

// Restored bundles the outcome of a restore.
type Restored struct {
	App     *android.App
	Entries []*record.Entry
	// PendingHandles are the replay-restorable slots the reintegration
	// phase must fill (sorted by handle id).
	PendingHandles []HandleRecord
}

// Restore reconstructs the checkpointed app on the guest device: private
// PID namespace, memory map, descriptor table, and Binder handles re-bound
// to the guest's services at their original ids. Graphics state is not
// restored; conditional initialization rebuilds it at foreground time.
func Restore(img *Image, opts RestoreOptions) (*Restored, error) {
	if opts.Runtime == nil {
		return nil, fmt.Errorf("cria: RestoreOptions.Runtime is required")
	}
	// Anchor verification comes first: before any guest state is stood
	// up, prove the record log is exactly what the home device anchored.
	// A mismatch aborts the restore outright — better no migration than
	// a wrong replay.
	if len(img.LogAnchor) > 0 {
		verifySec := opts.Span.Child("cria.log_verify")
		err := record.VerifyAnchor(img.RecordLog, img.LogAnchor)
		verifySec.Attr(obs.Int64("anchor_bytes", int64(len(img.LogAnchor)))).End()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLogTampered, err)
		}
	}
	wrapSec := opts.Span.Child("cria.wrapper")
	ns := kernel.NewPIDNamespace("wrapper:" + img.Pkg)
	app, err := opts.Runtime.RestoreApp(android.RestoreOptions{
		Spec:      img.Spec,
		State:     img.Runtime,
		Namespace: ns,
		VPID:      img.VPID,
	})
	if err != nil {
		wrapSec.End()
		return nil, err
	}
	wrapSec.Attr(obs.Int64("vpid", int64(img.VPID))).End()
	proc := app.Process()
	// Memory: replace the default mappings with the checkpointed set plus
	// the file-backed code mapping (supplied by pairing).
	memSec := opts.Span.Child("cria.memory")
	proc.UnmapSegments(func(s kernel.MemSegment) bool { return s.Kind == kernel.SegHeap })
	for _, seg := range img.Segments {
		proc.MapSegment(seg)
	}
	// Descriptors: restore every number exactly; replay proxies dup2 fresh
	// channels onto these reservations.
	for _, fd := range img.FDs {
		if err := proc.OpenFDAt(fd.Num, fd.Kind, fd.Path); err != nil {
			memSec.End()
			return nil, fmt.Errorf("cria: restoring fd %d: %w", fd.Num, err)
		}
	}
	memSec.Attr(
		obs.Int64("segments", int64(len(img.Segments))),
		obs.Int64("fds", int64(len(img.FDs))),
	).End()
	// Binder handles.
	handleSec := opts.Span.Child("cria.handle_table")
	var pending []HandleRecord
	bp := proc.Binder()
	for _, h := range img.Handles {
		switch h.Kind {
		case HandleContextManager:
			// Installed by OpenProc.
		case HandleSystemService:
			node := opts.Runtime.Kernel().Binder().ServiceManager().Lookup(h.ServiceName)
			if node == nil {
				handleSec.End()
				return nil, fmt.Errorf("cria: guest has no service %q for handle %d", h.ServiceName, h.Handle)
			}
			if err := bp.InjectRef(h.Handle, node); err != nil {
				handleSec.End()
				return nil, fmt.Errorf("cria: re-binding %q: %w", h.ServiceName, err)
			}
		case HandleInternal:
			// Re-publish the app's own Binder object. Its behaviour lives in
			// checkpointed app memory; the simulation stands it up as a node
			// with the original descriptor (see DESIGN.md substitutions).
			node, err := bp.Publish(h.Descriptor, binder.TransactorFunc(func(call *binder.Call) error {
				return nil
			}))
			if err != nil {
				handleSec.End()
				return nil, err
			}
			if err := bp.InjectRef(h.Handle, node); err != nil {
				handleSec.End()
				return nil, fmt.Errorf("cria: restoring internal handle %d: %w", h.Handle, err)
			}
		case HandleReplayRestorable:
			pending = append(pending, h)
		}
	}
	handleSec.Attr(
		obs.Int64("handles", int64(len(img.Handles))),
		obs.Int64("pending", int64(len(pending))),
	).End()
	entries := opts.Entries
	if entries == nil {
		logSec := opts.Span.Child("cria.record_log")
		entries, err = record.UnmarshalEntries(img.RecordLog)
		if err != nil {
			logSec.End()
			return nil, fmt.Errorf("cria: record log: %w", err)
		}
		logSec.Attr(obs.Int64("entries", int64(len(entries)))).End()
	}
	return &Restored{App: app, Entries: entries, PendingHandles: pending}, nil
}
