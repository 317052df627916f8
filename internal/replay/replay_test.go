package replay_test

import (
	"strings"
	"testing"
	"time"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/binder"
	"flux/internal/device"
	"flux/internal/kernel"
	"flux/internal/record"
	"flux/internal/replay"
	"flux/internal/services"
)

const pkg = "com.example.app"

// guestApp boots a guest device with a restored-looking app whose service
// handles are injected at chosen ids, mimicking CRIA's restore output.
func guestApp(t *testing.T) (*device.Device, *android.App) {
	t.Helper()
	dev, err := device.New(device.Nexus7_2013("guest"))
	if err != nil {
		t.Fatal(err)
	}
	app, err := dev.Runtime.Launch(android.AppSpec{
		Package: pkg, MainActivity: "Main", HeapBytes: 1 << 20, HeapEntropy: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev, app
}

// bind gives the app a handle to a named service at whatever id the driver
// picks, returning the handle for use in synthetic log entries.
func bind(t *testing.T, app *android.App, name string) binder.Handle {
	t.Helper()
	h, err := binder.GetService(app.Process().Binder(), name)
	if err != nil {
		t.Fatalf("bind %s: %v", name, err)
	}
	return h
}

// entry builds a synthetic log entry for a service method.
func entry(t *testing.T, itf *aidl.Interface, service, method string, handle binder.Handle, at time.Time, args ...any) *record.Entry {
	t.Helper()
	m := itf.Method(method)
	if m == nil {
		t.Fatalf("no method %s", method)
	}
	data, err := aidl.MarshalCallArgs(m, args...)
	if err != nil {
		t.Fatal(err)
	}
	return &record.Entry{
		App:       pkg,
		Service:   service,
		Interface: itf.Name,
		Method:    method,
		Code:      m.Code,
		Handle:    handle,
		At:        at,
		Data:      data.Marshal(),
	}
}

func TestReplayVerbatimRebuildsServiceState(t *testing.T) {
	dev, app := guestApp(t)
	h := bind(t, app, "notification")
	e := entry(t, services.NotificationInterface, "notification", "enqueueNotification",
		h, kernel.Epoch, 4, aidl.Object("n:restored"))
	ctx := &replay.Context{
		Pkg:            pkg,
		AppProc:        app.Process().Binder(),
		KernProc:       app.Process(),
		System:         dev.System,
		Recorder:       dev.Recorder,
		CheckpointTime: kernel.Epoch,
	}
	stats, err := replay.NewEngine().Replay(ctx, []*record.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if got := dev.System.Notifications.AppState(pkg)["notif.4"]; got != "n:restored" {
		t.Errorf("notification state = %v", dev.System.Notifications.AppState(pkg))
	}
}

func TestReplayAlarmTimeFilter(t *testing.T) {
	dev, app := guestApp(t)
	h := bind(t, app, "alarm")
	ckpt := dev.Kernel.Clock().Now()
	past := entry(t, services.AlarmInterface, "alarm", "set", h, kernel.Epoch,
		0, ckpt.Add(-time.Minute).UnixMilli(), aidl.Object("pi:old"))
	future := entry(t, services.AlarmInterface, "alarm", "set", h, kernel.Epoch,
		0, ckpt.Add(time.Hour).UnixMilli(), aidl.Object("pi:new"))
	ctx := &replay.Context{
		Pkg: pkg, AppProc: app.Process().Binder(), KernProc: app.Process(),
		System: dev.System, CheckpointTime: ckpt,
	}
	stats, err := replay.NewEngine().Replay(ctx, []*record.Entry{past, future})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedExpired != 1 || stats.Proxied != 1 {
		t.Errorf("stats = %+v", stats)
	}
	pending := dev.System.Alarms.Pending(pkg)
	if _, ok := pending["pi:old"]; ok {
		t.Error("expired alarm re-set")
	}
	if _, ok := pending["pi:new"]; !ok {
		t.Error("future alarm lost")
	}
}

func TestReplayVolumeDownscale(t *testing.T) {
	// Home was a 30-step tablet; guest defaults differ per device. Replay
	// index 18/30 onto a 15-step phone → 9.
	phone, err := device.New(device.Nexus4("phone"))
	if err != nil {
		t.Fatal(err)
	}
	app, err := phone.Runtime.Launch(android.AppSpec{
		Package: pkg, MainActivity: "M", HeapBytes: 1 << 20, HeapEntropy: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := bind(t, app, "audio")
	e := entry(t, services.AudioInterface, "audio", "setStreamVolume", h, kernel.Epoch,
		int(services.StreamMusic), 18, 0)
	ctx := &replay.Context{
		Pkg: pkg, AppProc: app.Process().Binder(), KernProc: app.Process(),
		System: phone.System, CheckpointTime: kernel.Epoch, HomeVolumeSteps: 30,
	}
	if _, err := replay.NewEngine().Replay(ctx, []*record.Entry{e}); err != nil {
		t.Fatal(err)
	}
	if got := phone.System.Audio.StreamVolume(services.StreamMusic); got != 9 {
		t.Errorf("downscaled volume = %d, want 9", got)
	}
}

func TestReplayMissingHardware(t *testing.T) {
	dev, app := guestApp(t)
	h := bind(t, app, "location")
	e := entry(t, services.LocationInterface, "location", "requestLocationUpdates",
		h, kernel.Epoch, "gps", int64(1000), 1.0)
	ctx := &replay.Context{
		Pkg: pkg, AppProc: app.Process().Binder(), KernProc: app.Process(),
		System: dev.System, CheckpointTime: kernel.Epoch,
		MissingServices: map[string]bool{"location": true},
	}
	stats, err := replay.NewEngine().Replay(ctx, []*record.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedMissingHW != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if dev.System.Location.Subscribed(pkg, "gps") {
		t.Error("call to missing hardware executed anyway")
	}
	// With network fallback the entry is forwarded instead.
	ctx.NetworkFallback = true
	stats, err = replay.NewEngine().Replay(ctx, []*record.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Forwarded != 1 {
		t.Errorf("fallback stats = %+v", stats)
	}
}

func TestReplayUnknownInterfaceFails(t *testing.T) {
	dev, app := guestApp(t)
	e := &record.Entry{App: pkg, Service: "mystery", Interface: "IMystery", Method: "m", Code: 1}
	ctx := &replay.Context{
		Pkg: pkg, AppProc: app.Process().Binder(), KernProc: app.Process(),
		System: dev.System, CheckpointTime: kernel.Epoch,
	}
	_, err := replay.NewEngine().Replay(ctx, []*record.Entry{e})
	if err == nil || !strings.Contains(err.Error(), "unknown interface") {
		t.Errorf("err = %v", err)
	}
}

func TestReplayStatsTotal(t *testing.T) {
	s := replay.Stats{Replayed: 1, Proxied: 2, SkippedExpired: 3, SkippedMissingHW: 4, Forwarded: 5}
	if s.Total() != 15 {
		t.Errorf("Total = %d", s.Total())
	}
}

// TestNewEngineAllocBudget: the interface and proxy tables are built once
// per process, so a migrator's engine costs at most its own header.
func TestNewEngineAllocBudget(t *testing.T) {
	var eng *replay.Engine
	allocs := testing.AllocsPerRun(100, func() { eng = replay.NewEngine() })
	if allocs > 1 {
		t.Fatalf("replay.NewEngine allocated %.0f objects, want at most 1", allocs)
	}
	if len(eng.ProxyPaths()) != 4 {
		t.Errorf("engine registers %d proxies, want the 4 standard ones", len(eng.ProxyPaths()))
	}
}
