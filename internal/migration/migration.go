// Package migration implements Flux's migration pipeline (paper §3.1,
// Figure 4): Preparation (background the app, let the task idler stop it,
// trim memory, eglUnload), Checkpoint (CRIA + the pruned record log),
// Transfer (verify APK, sync data-directory delta, ship the compressed
// image over the devices' wireless link), Restore (CRIA restore inside the
// pseudo-installed wrapper), and Reintegration (adaptive replay, hardware
// and connectivity change injection, foreground).
//
// Stage durations are modelled on virtual time: CPU-bound work scales with
// the device's CPU factor, and the transfer stage is governed by the
// netsim link — which is what reproduces the paper's "transfer dominates"
// breakdown (Figure 13).
package migration

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"flux/internal/android"
	"flux/internal/chunkstore"
	"flux/internal/cria"
	"flux/internal/device"
	"flux/internal/faults"
	"flux/internal/gpu"
	"flux/internal/obs"
	"flux/internal/pairing"
	"flux/internal/replay"
	"flux/internal/rsyncx"
)

// Stage is one of the five migration phases of Figure 13.
type Stage int

const (
	StagePreparation Stage = iota
	StageCheckpoint
	StageTransfer
	StageRestore
	StageReintegration
	numStages
)

func (s Stage) String() string {
	switch s {
	case StagePreparation:
		return "Preparation"
	case StageCheckpoint:
		return "Checkpoint"
	case StageTransfer:
		return "Transfer"
	case StageRestore:
		return "Restore"
	case StageReintegration:
		return "Reintegration"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Timings holds per-stage durations.
type Timings [numStages]time.Duration

// Total sums all stages.
func (t Timings) Total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}

// UserPerceived excludes the stages hidden behind the migration target
// menu (preparation and checkpoint), per the paper's §4 analysis.
func (t Timings) UserPerceived() time.Duration {
	return t[StageTransfer] + t[StageRestore] + t[StageReintegration]
}

// ExcludingTransfer is Figure 14's metric: user-perceived time without the
// network-bound stage.
func (t Timings) ExcludingTransfer() time.Duration {
	return t[StageRestore] + t[StageReintegration]
}

// Report is the outcome of one migration.
type Report struct {
	Pkg     string
	Home    string
	Guest   string
	Timings Timings
	// TransferredBytes is everything shipped during the transfer stage.
	TransferredBytes int64
	// ImageBytes is the raw checkpoint size (metadata + memory payload).
	ImageBytes int64
	// CompressedImageBytes is the image's wire size.
	CompressedImageBytes int64
	// RecordLogBytes is the pruned call log's wire size.
	RecordLogBytes int64
	// DataDeltaBytes is the app data-directory delta synced.
	DataDeltaBytes int64
	// APKDeltaBytes is nonzero when the APK changed since pairing.
	APKDeltaBytes int64
	// PostCopyResidualBytes is the payload streamed after the synchronous
	// transfer stage under Options.PostCopy.
	PostCopyResidualBytes int64
	// PipelineChunks is the number of wire chunks streamed (Pipelined
	// runs only; includes the leading delta lane when deltas shipped).
	PipelineChunks int
	// PipelineSavings is the user-perceived time the streaming pipeline
	// saved versus the sequential stop-and-copy counterfactual with the
	// same inputs (Pipelined runs only; no post-copy deferral in the
	// counterfactual).
	PipelineSavings time.Duration
	// CacheHits / CacheMisses / CacheRollingHits break down the delta
	// negotiation's chunk fates (Options.Cache runs only): chunks served
	// from the guest's cache, chunks shipped in full, and chunks shipped
	// as rolling deltas against the previous content generation.
	CacheHits        int
	CacheMisses      int
	CacheRollingHits int
	// CachePoisoned counts cached chunks that failed digest verification
	// during negotiation and were re-fetched over the wire.
	CachePoisoned int
	// CacheBytesNotShipped is the wire bytes the cache kept off the air.
	CacheBytesNotShipped int64
	// CacheDeltaBytes is the rolling-delta literal bytes shipped.
	CacheDeltaBytes int64
	// CacheNegotiationBytes is the digest-exchange traffic (both
	// directions), included in TransferredBytes.
	CacheNegotiationBytes int64
	// Outcome is the migration's terminal state: OutcomeOK,
	// OutcomeRolledBack, or "" when the run was refused before the
	// pipeline started (precondition errors).
	Outcome string
	// Retries counts fault-recovery attempts across all stages (zero
	// without fault injection).
	Retries int
	// RetransmitBytes is the payload reshipped by chunk-level recovery;
	// strictly less than the full wire size whenever recovery resumed
	// rather than restarted.
	RetransmitBytes int64
	// FaultEvents maps injection-site names to fired counts (nil when
	// nothing fired).
	FaultEvents map[string]int
	// ReplayStats summarizes adaptive replay.
	ReplayStats replay.Stats
	// StateBefore/StateAfter are the aggregate service states on home (at
	// checkpoint) and guest (after reintegration), for verification.
	StateBefore map[string]string
	StateAfter  map[string]string
	// App is the restored app instance on the guest.
	App *android.App
}

// StateConsistent reports whether the guest's service state matches the
// home state at checkpoint — the migration correctness criterion.
func (r *Report) StateConsistent() bool {
	if len(r.StateBefore) != len(r.StateAfter) {
		return false
	}
	for k, v := range r.StateBefore {
		if r.StateAfter[k] != v {
			return false
		}
	}
	return true
}

// Errors migration can refuse with, mirroring the paper's failure cases.
var (
	ErrNotPaired = errors.New("migration: devices are not paired")
	// ErrMigratedAway reports a native start attempt while the app's live
	// state sits on another device (paper §3.4).
	ErrMigratedAway = errors.New("migration: app state currently lives on another device")
	// ErrCommonSDCard re-exports the CRIA refusal for open common SD files.
	ErrCommonSDCard    = cria.ErrCommonSDCard
	ErrNotRunning      = errors.New("migration: app is not running on the home device")
	ErrPreserveEGL     = errors.New("migration: app preserves its EGL context (setPreserveEGLContextOnPause)")
	ErrAPILevel        = errors.New("migration: app requires a newer API level than the guest provides")
	ErrMultiProcess    = cria.ErrMultiProcess
	ErrProviderBusy    = cria.ErrProviderBusy
	ErrNonSystemBinder = cria.ErrNonSystemConnection
)

// Options tunes a migration run.
type Options struct {
	// AllowMultiProcess enables the paper's future-work process-tree
	// checkpointing.
	AllowMultiProcess bool
	// NetworkFallback lets calls to guest-absent hardware forward to the
	// home device over the network.
	NetworkFallback bool
	// SkipCompression ships the raw image (ablation).
	SkipCompression bool
	// PostCopy defers most of the memory payload: the transfer stage ships
	// only a working set, and the residual pages stream concurrently with
	// restore and reintegration — the paper's proposed optimization
	// ("post copy supplemented with adaptive pre-paging", §4). It shortens
	// user-perceived time without changing total bytes moved.
	PostCopy bool
	// PostCopyWorkingSet is the fraction of the compressed payload shipped
	// synchronously under PostCopy; default 0.3.
	PostCopyWorkingSet float64
	// Pipelined streams the migration instead of running stop-and-copy:
	// the image ships as ordered wire chunks (cria.Image.Chunks) and
	// checkpoint, compression, transfer, restore, and replay overlap on
	// the virtual timeline (see pipeline.go). Byte accounting is identical
	// to the sequential model — only the Timings change — and
	// Report.PipelineSavings records the user-perceived time won.
	Pipelined bool
	// PipelineChunkBytes is the raw chunk size of the stream; zero means
	// DefaultPipelineChunkBytes and values below MinPipelineChunkBytes are
	// clamped up.
	PipelineChunkBytes int64
	// Cache is the guest device's content-addressed chunk store. Setting
	// it enables delta migration: the checkpoint carries per-chunk
	// SHA-256 digests (FXC3), the transfer opens with a digest
	// negotiation, and chunks the guest already holds never cross the
	// wire (see delta.go). Nil — the default — disables the subsystem
	// entirely; runs are byte- and timing-identical to a build without
	// it.
	Cache *chunkstore.Store
	// SourceCache is the home device's store for the same pair. Every
	// digest the home offers is recorded in it, so a later hop in the
	// reverse direction (with the stores' roles swapped) hits. Optional;
	// ignored unless Cache is set.
	SourceCache *chunkstore.Store
	// VerifyLog embeds a seglog anchor over the record log in the
	// checkpoint image (cria.Options.AnchorLog): the guest verifies the
	// log against the anchor before restore proceeds and the replay
	// engine re-verifies before issuing transactions. A mismatch rolls
	// back to home — a wrong replay is never attempted. Off by default:
	// anchor-free runs keep their exact wire bytes and timings
	// (verification is modeled as free, like the CRC layer).
	VerifyLog bool
	// Faults injects deterministic faults into the pipeline (see
	// internal/faults). Nil — the default — disables injection entirely:
	// no recovery branches run and the migration is bit-identical to a
	// build without the subsystem.
	Faults *faults.Injector
	// Retry bounds fault recovery; the zero value means
	// DefaultRetryPolicy. Ignored without Faults.
	Retry RetryPolicy
	// Span optionally parents the migration's telemetry span tree (the
	// evaluation matrix nests each cell's migration under a cell span).
	// Nil starts a root span on the default tracer when telemetry is
	// enabled.
	Span *obs.Span
}

// Migrator moves apps between a fixed pair of devices.
type Migrator struct {
	Home  *device.Device
	Guest *device.Device
	Opts  Options

	engine *replay.Engine
}

// New builds a migrator for a device pair.
func New(home, guest *device.Device, opts Options) *Migrator {
	return &Migrator{Home: home, Guest: guest, Opts: opts, engine: replay.NewEngine()}
}

// advanceBoth moves both devices' virtual clocks: wall time passes on the
// guest while the home device prepares and checkpoints, and vice versa.
func (m *Migrator) advanceBoth(d time.Duration) {
	m.Home.Kernel.Clock().Advance(d)
	m.Guest.Kernel.Clock().Advance(d)
}

// chunkBytes resolves the streaming chunk size from the options: zero
// means DefaultPipelineChunkBytes, anything smaller than
// MinPipelineChunkBytes clamps up (per-chunk framing would swamp the
// overlap win below it).
func (m *Migrator) chunkBytes() int64 {
	cb := m.Opts.PipelineChunkBytes
	if cb <= 0 {
		cb = DefaultPipelineChunkBytes
	}
	if cb < MinPipelineChunkBytes {
		cb = MinPipelineChunkBytes
	}
	return cb
}

// cpuTime models CPU-bound work of `bytes` at `rate` bytes/sec on a 1.0
// device, scaled by the device's CPU factor, plus fixed overhead.
func cpuTime(fixed time.Duration, bytes int64, ratePerSec int64, cpuFactor float64) time.Duration {
	work := time.Duration(float64(bytes) / (float64(ratePerSec) * cpuFactor) * float64(time.Second))
	return fixed + work
}

// guestAPILevel is the API ceiling of the guest's Android version; all
// evaluation devices run KitKat (API 19).
func apiLevel(androidVersion string) int {
	switch androidVersion {
	case "4.4", "4.4.2":
		return 19
	case "4.3":
		return 18
	default:
		return 19
	}
}

// Migrate moves pkg from Home to Guest, returning a full report.
//
// When telemetry is enabled (obs.SetEnabled), the run produces one span
// tree — a root "migrate" span with one child per Figure 13 stage — on
// the home device's virtual clock. Each stage's clock advances happen
// inside its span, so span virtual durations equal the Timings entries
// exactly (fluxstat relies on this).
func (m *Migrator) Migrate(pkg string) (rep *Report, err error) {
	if !m.Home.PairedWith(m.Guest.Name()) {
		return nil, fmt.Errorf("%w: %s and %s", ErrNotPaired, m.Home.Name(), m.Guest.Name())
	}
	app := m.Home.Runtime.App(pkg)
	if app == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotRunning, pkg)
	}
	if app.Spec().APIKLevel > apiLevel(m.Guest.Profile().AndroidVersion) {
		return nil, fmt.Errorf("%w: needs API %d", ErrAPILevel, app.Spec().APIKLevel)
	}
	if app.ProviderBusy() {
		return nil, ErrProviderBusy
	}
	rep = &Report{
		Pkg:   pkg,
		Home:  m.Home.Name(),
		Guest: m.Guest.Name(),
	}
	link := device.Link(m.Home, m.Guest)
	homeCPU := m.Home.Profile().CPUFactor
	guestCPU := m.Guest.Profile().CPUFactor
	// Fault recovery state; nil (the overwhelmingly common case) means
	// every recovery branch below is skipped entirely.
	fr := m.faultRun(rep, link)

	span := obs.ChildOf(m.Opts.Span, SpanMigrate,
		obs.String("pkg", pkg),
		obs.String("home", m.Home.Name()),
		obs.String("guest", m.Guest.Name()),
		obs.Float64("link_mbps", float64(link.Bandwidth())*8/1e6),
	).SetVirtualClock(m.Home.Kernel.Clock().Now)
	defer func() {
		if err != nil {
			span.Attr(obs.String("error", err.Error()))
		}
		recordOutcome(rep, err)
		span.End()
	}()

	// ---- Stage 1: Preparation -------------------------------------------
	sp := span.Child(StagePreparation.SpanName())
	// Recording pauses: the app is no longer executing user work.
	m.Home.Recorder.Pause(pkg)
	defer m.Home.Recorder.Resume(pkg)

	m.Home.Runtime.MoveToBackground(app)
	// The unoptimized prototype waits for the task idler (paper §4).
	idle := m.Home.Runtime.IdleWait()
	m.advanceBoth(idle)
	texBytes := app.Spec().TextureCacheBytes
	if err := app.HandleTrimMemory(); err != nil {
		sp.End()
		if errors.Is(err, gpu.ErrContextPreserved) {
			return nil, fmt.Errorf("%w: %s", ErrPreserveEGL, pkg)
		}
		return nil, fmt.Errorf("migration: trim: %w", err)
	}
	if err := app.EGLUnload(); err != nil {
		sp.End()
		return nil, fmt.Errorf("migration: eglUnload: %w", err)
	}
	prepWork := cpuTime(prepFixed, texBytes, prepRate, homeCPU)
	m.advanceBoth(prepWork)
	rep.Timings[StagePreparation] = idle + prepWork
	sp.Attr(
		obs.Int64("idle_wait_us", idle.Microseconds()),
		obs.Int64("texture_cache_bytes", texBytes),
	).End()

	// ---- Stage 2: Checkpoint --------------------------------------------
	sp = span.Child(StageCheckpoint.SpanName())
	img, err := cria.Checkpoint(app, cria.Options{
		Span:            sp,
		HomeDevice:      m.Home.Name(),
		ServiceManager:  m.Home.Kernel.Binder().ServiceManager(),
		Recorder:        m.Home.Recorder,
		Now:             m.Home.Kernel.Clock().Now,
		HomeVolumeSteps: m.Home.System.Audio.MaxSteps(),
		ReplayRestorable: map[string]bool{
			"ISensorEventConnection": true,
		},
		AllowMultiProcess: m.Opts.AllowMultiProcess,
		AnchorLog:         m.Opts.VerifyLog,
		SystemPIDs: map[int]bool{
			0:                          true,
			m.Home.System.Proc().PID(): true,
		},
	})
	if err != nil {
		sp.End()
		return nil, err
	}
	rep.StateBefore = m.Home.System.AppState(pkg)
	rep.ImageBytes = img.PayloadBytes()
	if m.Opts.Cache != nil {
		// Delta migration ships the FXC3 container revision, whose
		// per-block content digests the negotiation keys on. Set before
		// WireBytes so every wire figure below reflects the digested
		// container.
		img.SetContentDigests(true)
	}
	imgWire, err := img.WireBytes()
	if err != nil {
		sp.End()
		return nil, err
	}
	rep.CompressedImageBytes = imgWire
	rep.RecordLogBytes = int64(len(img.RecordLog))
	var plan *pipelinePlan
	var dp *deltaPlan
	if m.Opts.Pipelined || m.Opts.Cache != nil {
		chunks, cerr := img.Chunks(m.chunkBytes())
		if cerr != nil {
			sp.End()
			return nil, cerr
		}
		if m.Opts.Cache != nil {
			dp = m.negotiate(chunks, fr)
		}
		if m.Opts.Pipelined {
			plan = planPipeline(chunks, homeCPU, m.Opts.SkipCompression, dp)
		}
	}
	var ckptDur time.Duration
	switch {
	case plan != nil:
		ckptDur = plan.CompDone
	case dp != nil:
		// Sequential delta run: the checkpoint pass still walks the whole
		// image, but the compressor only touches what ships. With
		// everything shipping this telescopes back to the classic
		// combined rate (1/ckptPipe + 1/compPipe = 1/ckptRate).
		ckptDur = ckptFixed +
			cpuWork(rep.ImageBytes, ckptPipeRate, homeCPU) +
			cpuWork(dp.compRaw, compPipeRate, homeCPU)
	default:
		ckptDur = cpuTime(ckptFixed, rep.ImageBytes, ckptRate, homeCPU)
	}
	m.advanceBoth(ckptDur)
	rep.Timings[StageCheckpoint] = ckptDur
	sp.Attr(
		obs.Int64("image_bytes", rep.ImageBytes),
		obs.Int64("compressed_image_bytes", rep.CompressedImageBytes),
		obs.Int64("record_log_bytes", rep.RecordLogBytes),
	).End()

	// ---- Stage 3: Transfer ----------------------------------------------
	sp = span.Child(StageTransfer.SpanName())
	apkDelta, err := pairing.VerifyAPK(m.Home, m.Guest, pkg)
	if err != nil {
		sp.End()
		return nil, err
	}
	rep.APKDeltaBytes = apkDelta
	rep.DataDeltaBytes = m.syncAppData(pkg)
	imageWire := rep.CompressedImageBytes
	if m.Opts.SkipCompression {
		imageWire = rep.ImageBytes + rep.RecordLogBytes
	}
	var negDur time.Duration
	if dp != nil {
		// Only the negotiated ship set crosses the wire; the digest
		// exchange itself is priced and accounted on the link.
		imageWire = dp.shippedImageWire
		negDur = link.NegotiateTime(dp.negUp, dp.negDown)
	}
	var residual int64
	if m.Opts.PostCopy {
		ws := m.Opts.PostCopyWorkingSet
		if ws <= 0 || ws > 1 {
			ws = 0.3
		}
		residual = int64(float64(imageWire) * (1 - ws))
		imageWire -= residual
	}
	wire := rep.DataDeltaBytes + apkDelta + imageWire
	rep.TransferredBytes = wire + residual
	rep.PostCopyResidualBytes = residual
	if dp != nil {
		rep.TransferredBytes += dp.negUp + dp.negDown
	}
	var transferDur time.Duration
	if plan != nil {
		// Streamed: the full image (working set first) ships synchronously
		// as chunk lanes overlapping compression on one side and restore on
		// the other; PostCopy only moves the replay gate (the working-set
		// fraction), never defers bytes out of the stream.
		ws := DefaultPipelineWorkingSet
		if m.Opts.PostCopy {
			ws = m.Opts.PostCopyWorkingSet
			if ws <= 0 || ws > 1 {
				ws = DefaultPipelineWorkingSet
			}
		}
		plan.scheduleStream(rep.DataDeltaBytes+apkDelta, link, guestCPU, ws, negDur)
		// Account the stream on the link's telemetry. The makespan comes
		// from the schedule: stalls waiting on compression are the
		// pipeline's, not the link's, so StreamTime's return is unused.
		// Cache-hit lanes never touch the wire and take no stream slot.
		link.StreamTime(plan.shippedWires())
		transferDur = plan.XferDone - plan.CompDone
		rep.PipelineChunks = len(plan.Lanes)
		plan.emitChunkSpans(sp)
		if obs.Enabled() {
			mm := obs.M()
			mm.Counter(MetricPipelineChunks).Add(uint64(len(plan.Lanes)))
			mm.Histogram(MetricPipelineStallSeconds, obs.DurationBuckets, "kind", "wire").Observe(plan.WireStall.Seconds())
			mm.Histogram(MetricPipelineStallSeconds, obs.DurationBuckets, "kind", "restore").Observe(plan.RstrStall.Seconds())
		}
		sp.Attr(
			obs.Int64("pipeline_chunks", int64(len(plan.Lanes))),
			obs.Int64("pipeline_wire_stall_us", plan.WireStall.Microseconds()),
			obs.Int64("pipeline_restore_stall_us", plan.RstrStall.Microseconds()),
		)
	} else {
		transferDur = negDur + link.TransferTime(wire)
	}
	var transferFault error
	if fr != nil {
		if dp != nil {
			// Cached chunks that failed digest verification during
			// negotiation re-fetch over the wire: priced here, inside the
			// transfer stage, as ordinary chunk-corrupt recoveries.
			transferDur += dp.poisonOverhead(fr, sp)
		}
		// Resumable recovery over the same chunk partition the stream
		// ships (sequential runs retransmit at the configured chunk
		// size): landed-and-verified chunks never reship, only faulted
		// chunks pay airtime again. Cache-hit lanes never touch the wire,
		// so they take no fault questions.
		var wires []int64
		if plan != nil {
			wires = plan.shippedWires()
		} else {
			wires = chunkWires(wire, m.chunkBytes())
		}
		var overhead time.Duration
		overhead, transferFault = fr.transferRecovery(sp, wires)
		transferDur += overhead
	}
	if dp != nil {
		dp.record(rep, sp)
	}
	m.advanceBoth(transferDur)
	rep.Timings[StageTransfer] = transferDur
	sp.Attr(
		obs.Int64("wire_bytes", wire),
		obs.Int64("apk_delta_bytes", apkDelta),
		obs.Int64("data_delta_bytes", rep.DataDeltaBytes),
		obs.Int64("postcopy_residual_bytes", residual),
		obs.Int64("retransmit_bytes", rep.RetransmitBytes),
	).End()
	if transferFault != nil {
		return m.rollback(rep, app, nil, transferFault)
	}

	// Exercise the real serialization path: the guest decodes the image
	// it received.
	imgBytes, err := img.Marshal()
	if err != nil {
		return nil, err
	}
	if fr != nil && fr.inj.Fired(faults.ChunkCorrupt) > 0 {
		// A chunk-corruption fault fired during transfer: prove the real
		// container integrity layer would have caught it by flipping a
		// byte of the actual wire bytes and requiring Unmarshal to
		// reject the mutant before decoding the pristine copy.
		mut := bytes.Clone(imgBytes)
		mut[len(mut)/2] ^= 0x20
		if _, cerr := cria.Unmarshal(mut); cerr == nil {
			return nil, errors.New("migration: corrupted image decoded cleanly; container CRC layer is broken")
		}
	}
	img, err = cria.Unmarshal(imgBytes)
	if err != nil {
		return nil, fmt.Errorf("migration: image did not survive transfer: %w", err)
	}
	if fr != nil && m.Opts.VerifyLog && len(img.RecordLog) > 0 && fr.inj.Should(faults.LogTamper) {
		// Tamper with the log AFTER the container integrity layer was
		// passed: a single flipped payload bit that re-frames cleanly.
		// Only the anchor's hash chain can catch this.
		img.RecordLog[len(img.RecordLog)/2] ^= 0x01
		img.Invalidate()
	}

	// ---- Stage 4: Restore -----------------------------------------------
	sp = span.Child(StageRestore.SpanName())
	var restoreOverhead time.Duration
	if fr != nil {
		// Failed restore attempts waste the wrapper standup (rstrFixed)
		// plus backoff before the retry; exhaustion rolls back before
		// anything was stood up on the guest.
		var ferr error
		restoreOverhead, ferr = fr.stageRecovery(sp, StageRestore, faults.RestoreFail, rstrFixed)
		if ferr != nil {
			m.advanceBoth(restoreOverhead)
			rep.Timings[StageRestore] = restoreOverhead
			sp.End()
			return m.rollback(rep, app, nil, ferr)
		}
	}
	restored, err := cria.Restore(img, cria.RestoreOptions{Runtime: m.Guest.Runtime, Span: sp})
	if err != nil {
		sp.End()
		if errors.Is(err, cria.ErrLogTampered) {
			// Anchor verification caught a log that is not what the home
			// device recorded. Nothing was stood up on the guest; roll
			// back to the still-running home app rather than replay a
			// wrong log.
			return m.rollback(rep, app, nil, err)
		}
		return nil, err
	}
	var restoreDur time.Duration
	if plan != nil {
		restoreDur = plan.RstrDone - plan.XferDone
	} else {
		restoreDur = cpuTime(rstrFixed, rep.ImageBytes, rstrRate, guestCPU)
	}
	restoreDur += restoreOverhead
	m.advanceBoth(restoreDur)
	rep.Timings[StageRestore] = restoreDur
	sp.Attr(
		obs.Int64("restored_entries", int64(len(restored.Entries))),
		obs.Int64("pending_handles", int64(len(restored.PendingHandles))),
	).End()

	// ---- Stage 5: Reintegration -----------------------------------------
	sp = span.Child(StageReintegration.SpanName())
	var reintOverhead time.Duration
	if fr != nil {
		// Failed replay entries cost one entry's replay time plus
		// backoff; exhaustion discards the restored guest instance and
		// rolls back to the (still running) home app.
		var ferr error
		reintOverhead, ferr = fr.stageRecovery(sp, StageReintegration, faults.ReplayFail, replayPerEntry)
		if ferr != nil {
			m.advanceBoth(reintOverhead)
			rep.Timings[StageReintegration] = reintOverhead
			sp.End()
			return m.rollback(rep, app, restored.App, ferr)
		}
	}
	ctx := &replay.Context{
		Pkg:             pkg,
		AppProc:         restored.App.Process().Binder(),
		KernProc:        restored.App.Process(),
		System:          m.Guest.System,
		Recorder:        m.Guest.Recorder,
		CheckpointTime:  img.CheckpointTime,
		HomeVolumeSteps: img.HomeVolumeSteps,
		NetworkFallback: m.Opts.NetworkFallback,
		Anchor:          img.LogAnchor,
		Span:            sp,
	}
	stats, err := m.engine.Replay(ctx, restored.Entries)
	rep.ReplayStats = stats
	if err != nil {
		sp.End()
		return nil, err
	}
	// Inform the app of connectivity and hardware changes, then foreground.
	m.Guest.Runtime.InjectConnectivityChange(restored.App, m.Guest.System.Connectivity.Network())
	m.Guest.Runtime.Broadcast(android.Intent{
		Action: android.ActionHardwareChange,
		Pkg:    pkg,
		Extras: map[string]string{"gpu": m.Guest.Profile().GPU.Model},
	})
	if err := m.Guest.Runtime.Foreground(restored.App); err != nil {
		return nil, fmt.Errorf("migration: foreground: %w", err)
	}
	var reintDur time.Duration
	if plan != nil {
		reintDur = plan.reintTail(len(restored.Entries), texBytes, guestCPU)
		// Savings versus the sequential stop-and-copy counterfactual with
		// identical inputs. The pipelined user-perceived window is exactly
		// Timings.UserPerceived() (the stage boundaries partition the
		// makespan), so this equals a measured sequential run's
		// UserPerceived minus ours, byte for byte.
		seqWire := rep.DataDeltaBytes + apkDelta + rep.CompressedImageBytes
		if m.Opts.SkipCompression {
			seqWire = rep.DataDeltaBytes + apkDelta + rep.ImageBytes + rep.RecordLogBytes
		}
		if dp != nil {
			// The counterfactual negotiates the same delta: savings
			// measure pipelining, not the cache.
			seqWire = rep.DataDeltaBytes + apkDelta + dp.shippedImageWire
		}
		seq := sequentialUserPerceived(link, seqWire, rep.ImageBytes, texBytes, len(restored.Entries), guestCPU)
		if dp != nil {
			seq += dp.negotiationModelTime(link)
		}
		rep.PipelineSavings = seq - plan.userPerceived(reintDur)
		if obs.Enabled() {
			saved := rep.PipelineSavings
			if saved < 0 {
				saved = 0
			}
			obs.M().Histogram(MetricPipelineSavedSeconds, obs.DurationBuckets).Observe(saved.Seconds())
		}
	} else {
		reintDur = cpuTime(reintFixed, texBytes, reintTexRate, guestCPU) +
			time.Duration(len(restored.Entries))*replayPerEntry
		if residual > 0 {
			// The residual payload streams while restore and reintegration
			// run; only the part that outlasts them extends the
			// reintegration stage (demand paging stalls are folded into the
			// stream time).
			streaming := link.TransferTime(residual)
			overlapped := rep.Timings[StageRestore] + reintDur
			if streaming > overlapped {
				reintDur += streaming - overlapped
			}
		}
	}
	reintDur += reintOverhead
	m.advanceBoth(reintDur)
	rep.Timings[StageReintegration] = reintDur
	rep.App = restored.App
	sp.Attr(
		obs.Int64("replay_entries", int64(stats.Total())),
		obs.Int64("replay_replayed", int64(stats.Replayed)),
		obs.Int64("replay_proxied", int64(stats.Proxied)),
		obs.Int64("replay_forwarded", int64(stats.Forwarded)),
	).End()

	// ---- Post-migration bookkeeping on the home device -------------------
	rep.StateAfter = m.Guest.System.AppState(pkg)
	m.Home.Runtime.Kill(app)
	m.Home.System.ForgetApp(pkg)
	m.Home.Recorder.Log().DropApp(pkg)
	if hi := m.Home.Installed(pkg); hi != nil {
		hi.MigratedTo = m.Guest.Name()
	}
	if gi := m.Guest.Installed(pkg); gi != nil {
		gi.MigratedTo = ""
	}
	rep.Outcome = OutcomeOK
	if fr != nil {
		rep.FaultEvents = fr.inj.Stats()
	}

	return rep, nil
}

// StartNative launches the natively installed app on dev. If the app's
// live state was migrated away and never brought back, the launch is
// refused with ErrMigratedAway, mirroring the paper's §3.4 prompt: the
// user must either migrate the app back (ResolveKeepRemote) or explicitly
// discard the remote state (ResolveKeepLocal).
func StartNative(dev *device.Device, spec android.AppSpec) (*android.App, error) {
	inst := dev.Installed(spec.Package)
	if inst != nil && inst.MigratedTo != "" {
		return nil, fmt.Errorf("%w: %s is on %s", ErrMigratedAway, spec.Package, inst.MigratedTo)
	}
	return dev.Runtime.Launch(spec)
}

// ConflictPolicy selects how a home-device start resolves against remote
// state (paper §3.4).
type ConflictPolicy int

const (
	// ResolveKeepRemote migrates the app back from the remote device so no
	// state is lost.
	ResolveKeepRemote ConflictPolicy = iota
	// ResolveKeepLocal discards the remote instance's state and proceeds
	// with the local install.
	ResolveKeepLocal
)

// ResolveConflict settles a migrated-away app between its home device and
// the remote device currently holding it. With ResolveKeepRemote it runs a
// migration back; with ResolveKeepLocal it kills the remote instance,
// clears its state, and reopens the app for native use at home.
func ResolveConflict(home, remote *device.Device, pkg string, policy ConflictPolicy) error {
	hi := home.Installed(pkg)
	if hi == nil || hi.MigratedTo == "" {
		return nil // nothing to resolve
	}
	if hi.MigratedTo != remote.Name() {
		return fmt.Errorf("migration: %s lives on %q, not %q", pkg, hi.MigratedTo, remote.Name())
	}
	switch policy {
	case ResolveKeepRemote:
		_, err := New(remote, home, Options{}).Migrate(pkg)
		return err
	case ResolveKeepLocal:
		if app := remote.Runtime.App(pkg); app != nil {
			remote.Runtime.Kill(app)
		}
		remote.System.ForgetApp(pkg)
		remote.Recorder.Log().DropApp(pkg)
		hi.MigratedTo = ""
		return nil
	}
	return fmt.Errorf("migration: unknown conflict policy %d", policy)
}

// syncAppData ships the app's data-directory delta (and app-specific SD
// card directory) to the guest, returning compressed wire bytes.
func (m *Migrator) syncAppData(pkg string) int64 {
	hi := m.Home.Installed(pkg)
	gi := m.Guest.Installed(pkg)
	if hi == nil || gi == nil {
		return 0
	}
	var wire int64
	if hi.DataDir != nil {
		if gi.DataDir == nil {
			gi.DataDir = hi.DataDir.Clone()
			wire += compressedTotal(hi.DataDir)
		} else {
			plan := rsyncx.Sync(hi.DataDir, gi.DataDir, nil)
			wire += plan.CompressedBytes()
		}
	}
	if hi.SDDir != nil {
		if gi.SDDir == nil {
			gi.SDDir = hi.SDDir.Clone()
			wire += compressedTotal(hi.SDDir)
		} else {
			plan := rsyncx.Sync(hi.SDDir, gi.SDDir, nil)
			wire += plan.CompressedBytes()
		}
	}
	return wire
}

func compressedTotal(t *rsyncx.Tree) int64 {
	var n int64
	for _, f := range t.Files() {
		n += f.CompressedSize()
	}
	return n
}
