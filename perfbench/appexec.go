package main

import (
	"fmt"
	"math/rand"
	"time"

	"flux/internal/aidl"
	"flux/internal/apps"
	"flux/internal/binder"
	"flux/internal/device"
	"flux/internal/faults"
	"flux/internal/obs"
	"flux/internal/services"
)

const (
	// appexecBatch is how many decorated Binder calls one op issues.
	appexecBatch = 100
	// appexecPrefix is how many batches per worker verify re-runs on a
	// fresh device; each must repeat the window's digest.
	appexecPrefix = 8
	// appexecChainEvery is how often (in batches) a worker's running
	// digest is checked against the stored references.
	appexecChainEvery = 500
)

// callKind is one kind of decorated Binder call the mix can repeat. Each
// kind toggles or overwrites a small fixed set of keys per app, so every
// call that creates record state is later undone or superseded by one
// that @drop prunes it with.
type callKind int

const (
	kindNotify   callKind = iota // enqueueNotification / cancelNotification
	kindAlarm                    // set / remove
	kindVolume                   // setStreamVolume
	kindWakeLock                 // acquireWakeLock / releaseWakeLock
	kindClip                     // setPrimaryClip
	kindVibrate                  // vibrate
	kindLocation                 // requestLocationUpdates / removeUpdates
	kindReceiver                 // registerReceiver / unregisterReceiver
	kindCamera                   // connectDevice / disconnectDevice
	kindKeyboard                 // showSoftInput / hideSoftInput
	kindRinger                   // setRingerMode
	numKinds
)

// kindKeys is, per kind, how many keys the mix uses: the most live record
// entries the kind holds per app.
var kindKeys = [numKinds]int{
	kindNotify:   4,
	kindAlarm:    3,
	kindVolume:   4, // stream types 0-3
	kindWakeLock: 2,
	kindClip:     1,
	kindVibrate:  1,
	kindLocation: 2,
	kindReceiver: 2,
	kindCamera:   2, // camera ids 0 and 1
	kindKeyboard: 1,
	kindRinger:   1,
}

// kindOfMethod maps the decorated calls a catalog app's workload issues,
// by "<descriptor>.<method>", to the kind the mix repeats them as.
var kindOfMethod = map[string]callKind{
	"INotificationManager.enqueueNotification": kindNotify,
	"INotificationManager.cancelNotification":  kindNotify,
	"IAlarmManager.set":                        kindAlarm,
	"IAlarmManager.remove":                     kindAlarm,
	"IAudioService.setStreamVolume":            kindVolume,
	"IPowerManager.acquireWakeLock":            kindWakeLock,
	"IPowerManager.releaseWakeLock":            kindWakeLock,
	"IClipboard.setPrimaryClip":                kindClip,
	"IVibratorService.vibrate":                 kindVibrate,
	"ILocationManager.requestLocationUpdates":  kindLocation,
	"ILocationManager.removeUpdates":           kindLocation,
	"IActivityManager.registerReceiver":        kindReceiver,
	"IActivityManager.unregisterReceiver":      kindReceiver,
	"ICameraService.connectDevice":             kindCamera,
	"ICameraService.disconnectDevice":          kindCamera,
	"IInputMethodManager.showSoftInput":        kindKeyboard,
	"IInputMethodManager.hideSoftInput":        kindKeyboard,
	"IAudioService.setRingerMode":              kindRinger,
}

// The mix's string arguments, built once so the timed calls allocate
// only inside the program.
var (
	locationProviders = []string{"gps", "network"}
	notifPayloads     = argNames("perfbench notification", kindKeys[kindNotify])
	alarmOps          = argNames("perfbench.alarm", kindKeys[kindAlarm])
	wakeTags          = argNames("perfbench.wake", kindKeys[kindWakeLock])
	receiverActions   = argNames("perfbench.ACTION", kindKeys[kindReceiver])
	clipTexts         = argNames("perfbench clip", 16)
)

func argNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// appexecApp is one live Table-3 session, the call kinds its catalog
// workload issued at launch, and the mix's toggles for it.
type appexecApp struct {
	s        *apps.Session
	pkg      string
	baseline int // live record entries the launch left
	// calls holds one kind per decorated call the app's catalog Run
	// issued, in order; the mix draws from it uniformly, so each kind's
	// weight is its share of the app's own calls.
	calls []callKind
	on    [numKinds][]bool // per kind, per key: toggled on
}

// liveBound is the most record entries the mix may leave live for the
// app: its launch's entries plus one per key of each kind it issues.
func (a *appexecApp) liveBound() int {
	n := a.baseline
	for k := callKind(0); k < numKinds; k++ {
		if a.on[k] != nil {
			n += kindKeys[k]
		}
	}
	return n
}

// plannedCall is one call of a batch, drawn from the seeded stream before
// the batch is timed.
type plannedCall struct {
	a    *appexecApp
	kind callKind
	key  int  // toggle key, stream type, clip text or ringer mode
	on   bool // for toggles: set (true) or undo (false)
	arg  int  // alarm minutes, volume index or vibration ms
}

// appexecWorker is one worker's booted Nexus 4 with its sessions, its
// seeded call stream and the next batch drawn from it.
type appexecWorker struct {
	key   string // digest key prefix
	dev   *device.Device
	apps  []*appexecApp
	rng   *rand.Rand
	chain vdigest
	bound int // the most live record entries the log may hold
	next  [appexecBatch]plannedCall
}

type appexecInst struct {
	env     *env
	workers []*appexecWorker
	// bare marks a window run with the recorder's interposer removed:
	// record outputs are not checked there, only call errors.
	bare bool
}

func setupAppexec(e *env, sp *obs.Span) (instance, error) {
	inst := &appexecInst{env: e}
	for w := 0; w < e.workers; w++ {
		aw, err := newAppexecWorker(e.seed, w, sp)
		if err != nil {
			return nil, err
		}
		inst.workers = append(inst.workers, aw)
	}
	return inst, nil
}

// runProbe is a Binder interposer that lists the decorated calls made
// while it is installed, by "<descriptor>.<method>".
type runProbe struct {
	itfs  map[string]*aidl.Interface
	calls []string
}

func (p *runProbe) ObserveTransaction(_ int, node *binder.Node, call *binder.Call) {
	if itf := p.itfs[node.Descriptor()]; itf != nil {
		if m := itf.MethodByCode(call.Code); m != nil && m.Record != nil {
			p.calls = append(p.calls, node.Descriptor()+"."+m.Name)
		}
	}
}

// newAppexecWorker boots a Nexus 4 and launches every migratable Table-3
// app on it. A probe on the Binder driver lists the decorated calls each
// launch makes, which are those of the app's catalog Run; they become the
// app's call kinds in the mix.
func newAppexecWorker(seed int64, w int, sp *obs.Span) (*appexecWorker, error) {
	dev, err := bootDevice(sp, device.Nexus4(fmt.Sprintf("appexec%d", w)))
	if err != nil {
		return nil, err
	}
	aw := &appexecWorker{
		key:   fmt.Sprintf("appexec/w%d", w),
		dev:   dev,
		rng:   rand.New(rand.NewSource(faults.Derive(seed, "appexec", fmt.Sprint(w)))),
		chain: newDigest(),
	}
	itfs := services.InterfacesByDescriptor()
	for _, a := range apps.Migratable() {
		if _, err := call(sp, "apps.Install", func() (any, error) { return nil, apps.Install(dev, a) }); err != nil {
			return nil, err
		}
		probe := &runProbe{itfs: itfs}
		dev.Kernel.Binder().AddInterposer(probe)
		s, err := call(sp, "apps.Launch", func() (*apps.Session, error) { return apps.Launch(dev, a) })
		dev.Kernel.Binder().RemoveInterposer(probe)
		if err != nil {
			return nil, err
		}
		pkg := a.Spec.Package
		app := &appexecApp{s: s, pkg: pkg, baseline: len(dev.Recorder.Log().AppEntries(pkg))}
		for _, c := range probe.calls {
			k, ok := kindOfMethod[c]
			if !ok {
				return nil, fmt.Errorf("%s's workload issues %s, which the appexec mix cannot repeat", pkg, c)
			}
			app.calls = append(app.calls, k)
			if app.on[k] == nil {
				app.on[k] = make([]bool, kindKeys[k])
			}
		}
		if len(app.calls) == 0 {
			return nil, fmt.Errorf("%s's workload issues no decorated call", pkg)
		}
		aw.apps = append(aw.apps, app)
		aw.bound += app.liveBound()
	}
	return aw, nil
}

// plan draws the next batch's calls from the seeded stream and flips the
// toggles they set, so that the timed part issues only Session calls.
func (aw *appexecWorker) plan() {
	for i := range aw.next {
		a := aw.apps[aw.rng.Intn(len(aw.apps))]
		c := plannedCall{a: a, kind: a.calls[aw.rng.Intn(len(a.calls))]}
		switch c.kind {
		case kindNotify, kindAlarm, kindWakeLock, kindLocation, kindReceiver, kindCamera:
			c.key = aw.rng.Intn(kindKeys[c.kind])
			on := a.on[c.kind]
			on[c.key] = !on[c.key]
			c.on = on[c.key]
			if c.kind == kindAlarm && c.on {
				c.arg = 1 + aw.rng.Intn(60)
			}
		case kindKeyboard:
			a.on[c.kind][0] = !a.on[c.kind][0]
			c.on = a.on[c.kind][0]
		case kindVolume:
			c.key, c.arg = aw.rng.Intn(kindKeys[c.kind]), aw.rng.Intn(8)
		case kindClip:
			c.key = aw.rng.Intn(len(clipTexts))
		case kindVibrate:
			c.arg = 10 + aw.rng.Intn(90)
		case kindRinger:
			c.key = aw.rng.Intn(3) // silent, vibrate, normal
		}
		aw.next[i] = c
	}
}

// issue makes one planned call.
func (c *plannedCall) issue() error {
	s := c.a.s
	switch c.kind {
	case kindNotify:
		if c.on {
			return s.Notify(c.key, notifPayloads[c.key])
		}
		return s.CancelNotification(c.key)
	case kindAlarm:
		if c.on {
			return s.SetAlarm(time.Duration(c.arg)*time.Minute, alarmOps[c.key])
		}
		return s.Call(services.AlarmInterface, "alarm", "remove", aidl.Object(alarmOps[c.key]))
	case kindVolume:
		return s.SetVolume(int32(c.key), c.arg)
	case kindWakeLock:
		if c.on {
			return s.HoldWakeLock(wakeTags[c.key])
		}
		return s.Call(services.PowerInterface, "power", "releaseWakeLock", wakeTags[c.key])
	case kindClip:
		return s.Clip(clipTexts[c.key])
	case kindVibrate:
		return s.Vibrate(int64(c.arg))
	case kindLocation:
		if c.on {
			return s.WatchLocation(locationProviders[c.key])
		}
		return s.Call(services.LocationInterface, "location", "removeUpdates", locationProviders[c.key])
	case kindReceiver:
		if c.on {
			return s.Listen(receiverActions[c.key])
		}
		return s.Call(services.ActivityInterface, "activity", "unregisterReceiver", receiverActions[c.key])
	case kindCamera:
		method := "disconnectDevice"
		if c.on {
			method = "connectDevice"
		}
		return s.Call(services.CameraInterface, "camera", method, c.key)
	case kindKeyboard:
		if c.on {
			return s.Keyboard()
		}
		return s.Call(services.InputMethodInterface, "input_method", "hideSoftInput", 0)
	default:
		return s.Call(services.AudioInterface, "audio", "setRingerMode", c.key)
	}
}

// issue makes the planned batch's calls and returns the first error.
func (aw *appexecWorker) issue() error {
	for i := range aw.next {
		if err := aw.next[i].issue(); err != nil {
			return err
		}
	}
	return nil
}

// batch plans and issues one op's calls.
func (aw *appexecWorker) batch() error {
	aw.plan()
	return aw.issue()
}

// batchDigest is the virtual output of the log after a batch: the
// recorder's counters, the live entries and the device's virtual clock.
func (aw *appexecWorker) batchDigest() vdigest {
	st := aw.dev.Recorder.Stats()
	d := newDigest()
	d.ints(int64(st.Observed), int64(st.Recorded), int64(st.DroppedByRule), int64(st.Pruned),
		int64(aw.dev.Recorder.Log().Len()), aw.dev.Kernel.Clock().Now().UnixNano())
	return d
}

func (x *appexecInst) fixedOps(int) int64 { return -1 }

func (x *appexecInst) op(w int, i int64, root *obs.Span) opOut {
	aw := x.workers[w]
	var before recDelta
	if root != nil {
		before = recStats(aw.dev)
	}
	aw.plan()
	sp := root.Child("apps.Session")
	clock := startOp()
	err := aw.issue()
	out := clock.stop()
	sp.End()
	if err != nil {
		x.env.check.fail("%s batch %d: %v", aw.key, i+1, err)
		return out
	}
	if x.bare {
		out.ok = true
		return out
	}
	live := aw.dev.Recorder.Log().Len()
	if live > aw.bound {
		x.env.check.fail("%s batch %d: %d live record entries, bound %d", aw.key, i+1, live, aw.bound)
		return out
	}
	out.ok = x.checkBatch(aw, i+1)
	if root != nil {
		out.rec = recStats(aw.dev).since(before)
		out.rec.live = float64(live) / float64(len(aw.apps))
	}
	return out
}

// checkBatch gates batch n (1-based): its digest for the first batches,
// and the worker's running digest every appexecChainEvery batches.
func (x *appexecInst) checkBatch(aw *appexecWorker, n int64) bool {
	d := aw.batchDigest()
	ok := true
	if n <= appexecPrefix {
		ok = x.env.check.check(fmt.Sprintf("%s/batch%04d", aw.key, n), d)
	}
	aw.chain.ints(int64(d))
	if n%appexecChainEvery == 0 {
		ok = x.env.check.check(fmt.Sprintf("%s/chain%06d", aw.key, n), aw.chain) && ok
	}
	return ok
}

// verify checks each app's live entries against the mix's bound, then
// re-runs every worker's first batches on a fresh device; each must
// repeat the window's digest.
func (x *appexecInst) verify() error {
	for w, aw := range x.workers {
		for _, a := range aw.apps {
			if n, bound := len(aw.dev.Recorder.Log().AppEntries(a.pkg)), a.liveBound(); n > bound {
				x.env.check.fail("%s %s: %d live record entries, bound %d", aw.key, a.pkg, n, bound)
			}
		}
		fresh, err := newAppexecWorker(x.env.seed, w, nil)
		if err != nil {
			return err
		}
		for n := int64(1); n <= appexecPrefix; n++ {
			if err := fresh.batch(); err != nil {
				return fmt.Errorf("re-running %s batch %d: %w", fresh.key, n, err)
			}
			x.checkBatch(fresh, n)
		}
	}
	return nil
}

// bareWindow times the same mix with every worker's recorder removed
// from its Binder driver: the host cost of a decorated call without
// Selective Record.
func (x *appexecInst) bareWindow(budget time.Duration) (*window, error) {
	for _, aw := range x.workers {
		aw.dev.Kernel.Binder().RemoveInterposer(aw.dev.Recorder)
	}
	x.bare = true
	return runWindow(x, len(x.workers), budget, false)
}
