// Package services implements the Android system services Flux decorates
// (paper Table 2): 14 hardware-facing and 8 software services, each with a
// Flux-decorated AIDL interface, live state, and — where the paper calls
// for it — an adaptive-replay proxy hook. The System type assembles them
// into a system_server process on a device's kernel, registering every
// service with the ServiceManager and the Selective Record recorder.
package services

import (
	"fmt"
	"sort"
	"sync"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/binder"
	"flux/internal/kernel"
	"flux/internal/record"
)

// AppStater is implemented by every service that holds per-app state. The
// migration pipeline snapshots these maps on the home device and asserts
// equality on the guest after adaptive replay — the paper's correctness
// criterion that "the app can interact with system services right where it
// left off".
type AppStater interface {
	// ServiceName returns the ServiceManager registration name.
	ServiceName() string
	// AppState returns a canonical key→value rendering of the service's
	// state for one app. Device-specific values must be normalized out.
	AppState(pkg string) map[string]string
	// ForgetApp drops the app's state (after migration out or uninstall).
	ForgetApp(pkg string)
}

// Config wires a System into its device.
type Config struct {
	Kernel *kernel.Kernel
	// Recorder, if non-nil, has every decorated interface registered on it.
	Recorder *record.Recorder
	// Broadcast delivers an intent to apps; the android.Runtime provides it.
	Broadcast func(android.Intent) int
	// PackageOf resolves pids to packages for per-app service state.
	PackageOf func(pid int) (string, bool)
	// VolumeSteps is the device's maximum volume index per audio stream —
	// the device-specific quantity the audio replay proxy rescales.
	VolumeSteps int
	// NetworkName is the device's active network, reported by the
	// ConnectivityManagerService.
	NetworkName string
}

// System is one device's system_server.
type System struct {
	cfg  Config
	proc *kernel.Process

	Notifications *NotificationManagerService
	Alarms        *AlarmManagerService
	Sensors       *SensorService
	Audio         *AudioService
	Activity      *ActivityManagerService
	Clipboard     *ClipboardService
	Wifi          *WifiService
	Connectivity  *ConnectivityManagerService
	Location      *LocationManagerService
	Power         *PowerManagerService
	Vibrator      *VibratorService
	InputMethod   *InputMethodManagerService
	Input         *InputManagerService
	Keyguard      *KeyguardService
	UiMode        *UiModeManagerService
	Nsd           *NsdService
	TextServices  *TextServicesManagerService
	Country       *CountryDetectorService
	Camera        *CameraManagerService
	Bluetooth     *BluetoothService
	Serial        *SerialService
	Usb           *UsbService
	// Packages is the PackageManagerService. It is not one of Table 2's
	// decorated services (install metadata moves via pairing, not replay)
	// but the pairing phase pseudo-installs through it (paper §3.1).
	Packages *PackageManagerService

	mu      sync.Mutex
	staters map[string]AppStater
	catalog []registration
	itfs    map[string]*aidl.Interface // by descriptor, for telemetry method names
	pkgOfFn func(pid int) (string, bool)
}

// Registration describes one booted service for Table 2 reporting.
type Registration struct {
	Name       string // ServiceManager name
	Descriptor string
	Hardware   bool // hardware-facing per Table 2's split
	// PaperMethods and PaperLOC are the counts the paper reports for the
	// full Android interface; MeasuredMethods and MeasuredLOC are what this
	// reproduction's subset actually implements. PaperLOC < 0 means the
	// paper lists TBD.
	PaperMethods    int
	PaperLOC        int
	MeasuredMethods int
	MeasuredLOC     int
}

// registration is one Catalog row plus the decorated AIDL source its
// MeasuredLOC is counted from. Catalog lexes the source on demand, so
// booting a device never does.
type registration struct {
	Registration
	src string
}

// Boot starts system_server and all 22 services.
func Boot(cfg Config) (*System, error) {
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("services: Config.Kernel is required")
	}
	if cfg.VolumeSteps <= 0 {
		cfg.VolumeSteps = 15
	}
	if cfg.NetworkName == "" {
		cfg.NetworkName = "wifi"
	}
	if cfg.Broadcast == nil {
		cfg.Broadcast = func(android.Intent) int { return 0 }
	}
	proc, err := cfg.Kernel.CreateProcess(kernel.ProcessOptions{Name: "system_server", UID: 1000})
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, proc: proc, staters: make(map[string]AppStater), itfs: make(map[string]*aidl.Interface)}
	s.pkgOfFn = cfg.PackageOf
	// Give the Binder driver's telemetry tap human-readable method names
	// instead of raw transaction codes.
	cfg.Kernel.Binder().SetMethodNamer(s.methodName)

	s.Notifications = newNotificationManagerService(s)
	s.Alarms = newAlarmManagerService(s)
	s.Sensors = newSensorService(s)
	s.Audio = newAudioService(s, cfg.VolumeSteps)
	s.Activity = newActivityManagerService(s)
	s.Clipboard = newClipboardService(s)
	s.Wifi = newWifiService(s)
	s.Connectivity = newConnectivityManagerService(s, cfg.NetworkName)
	s.Location = newLocationManagerService(s)
	s.Power = newPowerManagerService(s)
	s.Vibrator = newVibratorService(s)
	s.InputMethod = newInputMethodManagerService(s)
	s.Input = newInputManagerService(s)
	s.Keyguard = newKeyguardService(s)
	s.UiMode = newUiModeManagerService(s)
	s.Nsd = newNsdService(s)
	s.TextServices = newTextServicesManagerService(s)
	s.Country = newCountryDetectorService(s)
	s.Camera = newCameraManagerService(s)
	s.Bluetooth = newBluetoothService(s)
	s.Serial = newSerialService(s)
	s.Usb = newUsbService(s)
	s.Packages = newPackageManagerService(s)

	return s, nil
}

// SetPackageResolver installs the pid→package hook after the android
// runtime exists (the runtime needs the kernel, the services need the
// runtime's resolver; this breaks the construction cycle).
func (s *System) SetPackageResolver(fn func(pid int) (string, bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkgOfFn = fn
}

// SetBroadcast installs the intent-delivery hook.
func (s *System) SetBroadcast(fn func(android.Intent) int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Broadcast = fn
}

func (s *System) broadcast(in android.Intent) int {
	s.mu.Lock()
	fn := s.cfg.Broadcast
	s.mu.Unlock()
	return fn(in)
}

// Proc returns the system_server process.
func (s *System) Proc() *kernel.Process { return s.proc }

// Kernel returns the device kernel.
func (s *System) Kernel() *kernel.Kernel { return s.cfg.Kernel }

// callerPkg resolves the calling pid of a transaction to a package name.
func (s *System) callerPkg(call *binder.Call) (string, error) {
	s.mu.Lock()
	fn := s.pkgOfFn
	s.mu.Unlock()
	if fn == nil {
		return "", fmt.Errorf("services: no package resolver installed")
	}
	pkg, ok := fn(call.CallingPID)
	if !ok {
		return "", fmt.Errorf("services: cannot resolve pid %d to a package", call.CallingPID)
	}
	return pkg, nil
}

// register publishes a service and threads it through the ServiceManager,
// the recorder, and the Table 2 catalog.
func (s *System) register(name string, itf *aidl.Interface, src string, hardware bool, paperMethods, paperLOC int, svc binder.Transactor, stater AppStater) {
	if _, err := binder.AddService(s.proc.Binder(), name, itf.Name, svc); err != nil {
		panic(fmt.Sprintf("services: registering %s: %v", name, err))
	}
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.RegisterInterface(name, itf)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if stater != nil {
		s.staters[name] = stater
	}
	s.itfs[itf.Name] = itf
	s.catalog = append(s.catalog, registration{
		Registration: Registration{
			Name:            name,
			Descriptor:      itf.Name,
			Hardware:        hardware,
			PaperMethods:    paperMethods,
			PaperLOC:        paperLOC,
			MeasuredMethods: len(itf.Methods),
		},
		src: src,
	})
}

// methodName resolves a (descriptor, transaction code) pair to a method
// name via the booted services' AIDL catalog — the binder.MethodNamer
// backing telemetry labels.
func (s *System) methodName(descriptor string, code uint32) (string, bool) {
	s.mu.Lock()
	itf := s.itfs[descriptor]
	s.mu.Unlock()
	if itf == nil {
		return "", false
	}
	if m := itf.MethodByCode(code); m != nil {
		return m.Name, true
	}
	return "", false
}

// Catalog returns the Table 2 registrations sorted by name.
func (s *System) Catalog() []Registration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Registration, len(s.catalog))
	for i, r := range s.catalog {
		out[i] = r.Registration
		out[i].MeasuredLOC = aidl.DecorationLOC(r.src)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AppState aggregates every service's state for one app into a canonical
// map keyed "service/key". It is the equality witness migration tests use.
func (s *System) AppState(pkg string) map[string]string {
	s.mu.Lock()
	staters := make([]AppStater, 0, len(s.staters))
	for _, st := range s.staters {
		staters = append(staters, st)
	}
	s.mu.Unlock()
	out := make(map[string]string)
	for _, st := range staters {
		for k, v := range st.AppState(pkg) {
			out[st.ServiceName()+"/"+k] = v
		}
	}
	return out
}

// ForgetApp drops every service's state for an app after it migrates away.
func (s *System) ForgetApp(pkg string) {
	s.mu.Lock()
	staters := make([]AppStater, 0, len(s.staters))
	for _, st := range s.staters {
		staters = append(staters, st)
	}
	s.mu.Unlock()
	for _, st := range staters {
		st.ForgetApp(pkg)
	}
}
