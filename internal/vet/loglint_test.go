package vet

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/record"
)

// notifSrc is the Figure 7 shape: cancel(id) annihilates against the
// enqueue of the same id.
const notifSrc = `
interface INotificationManager {
	@record
	void enqueueNotification(int id, in Notification notification);

	@record {
		@drop this, enqueueNotification;
		@if id;
	}
	void cancelNotification(int id);
}
`

func lintFixture(t *testing.T, entries []*record.Entry, opts LogLintOptions) []Finding {
	t.Helper()
	itf := aidl.MustParse(notifSrc)
	return LintEntries("com.app", entries, map[string]*aidl.Interface{itf.Name: itf}, opts)
}

// entry builds a log entry for the fixture interface with marshalled args.
func entry(t *testing.T, itf *aidl.Interface, seq uint64, method string, h binder.Handle, args ...any) *record.Entry {
	t.Helper()
	m := itf.Method(method)
	if m == nil {
		t.Fatalf("no method %s", method)
	}
	p, err := aidl.MarshalCallArgs(m, args...)
	if err != nil {
		t.Fatalf("marshalling %s: %v", method, err)
	}
	return &record.Entry{
		Seq: seq, App: "com.app", Interface: itf.Name, Method: method,
		Code: m.Code, Handle: h, Data: p.Marshal(),
	}
}

func TestLintLogCleanSurvivors(t *testing.T) {
	itf := aidl.MustParse(notifSrc)
	// Two enqueues of different ids, then a cancel of a third id that
	// matched nothing: everything legitimately survives.
	entries := []*record.Entry{
		entry(t, itf, 1, "enqueueNotification", 3, int32(1), aidl.Object("a")),
		entry(t, itf, 2, "enqueueNotification", 3, int32(2), aidl.Object("b")),
		entry(t, itf, 3, "cancelNotification", 3, int32(9)),
	}
	if fs := lintFixture(t, entries, LogLintOptions{}); len(fs) != 0 {
		t.Fatalf("clean log produced findings: %v", fs)
	}
}

func TestLintLogPruneDrift(t *testing.T) {
	itf := aidl.MustParse(notifSrc)
	// cancel(id=1) should have pruned enqueue(id=1); a log where both
	// survive has drifted from the specs.
	entries := []*record.Entry{
		entry(t, itf, 1, "enqueueNotification", 3, int32(1), aidl.Object("a")),
		entry(t, itf, 2, "cancelNotification", 3, int32(1)),
	}
	fs := lintFixture(t, entries, LogLintOptions{})
	got := findAll(fs, "prune-drift")
	if len(got) != 2 {
		t.Fatalf("want prune-drift on the unpruned enqueue and the unsuppressed cancel, got %v", fs)
	}
	// First finding points at the entry that should have been pruned
	// (seq 1), second at the self-suppressed trigger (seq 2).
	if got[0].Line != 1 || got[0].Method != "enqueueNotification" {
		t.Fatalf("pruned-survivor finding = %+v", got[0])
	}
	if got[1].Line != 2 || !strings.Contains(got[1].Message, "annihilation") {
		t.Fatalf("suppressed-trigger finding = %+v", got[1])
	}
}

func TestLintLogUnknownInterfaceMethodCode(t *testing.T) {
	itf := aidl.MustParse(notifSrc)
	good := entry(t, itf, 1, "enqueueNotification", 3, int32(1), aidl.Object("a"))
	ghostItf := &record.Entry{Seq: 2, App: "com.app", Interface: "IGhost", Method: "boo", Code: 1}
	ghostMethod := &record.Entry{Seq: 3, App: "com.app", Interface: itf.Name, Method: "boo", Code: 1}
	badCode := entry(t, itf, 4, "cancelNotification", 3, int32(9))
	badCode.Code = 99

	fs := lintFixture(t, []*record.Entry{good, ghostItf, ghostMethod, badCode}, LogLintOptions{})
	got := findAll(fs, "log-unknown")
	if len(got) != 3 {
		t.Fatalf("want 3 log-unknown findings, got %v", fs)
	}
	if got[0].Line != 2 || !strings.Contains(got[0].Message, "IGhost") {
		t.Fatalf("unknown-interface finding = %+v", got[0])
	}
	if got[1].Line != 3 || !strings.Contains(got[1].Message, "boo") {
		t.Fatalf("unknown-method finding = %+v", got[1])
	}
	if got[2].Line != 4 || !strings.Contains(got[2].Message, "99") {
		t.Fatalf("code-mismatch finding = %+v", got[2])
	}
}

func TestLintLogUnrecordedEntry(t *testing.T) {
	// An entry for a method with no @record: the recorder should never
	// have appended it — unless the log came from the full-record
	// ablation.
	src := "interface I {\n\t@record\n\tvoid a(int x);\n\tvoid b(int x);\n}\n"
	itf := aidl.MustParse(src)
	specs := map[string]*aidl.Interface{itf.Name: itf}
	entries := []*record.Entry{entry(t, itf, 1, "b", 3, int32(1))}

	fs := LintEntries("com.app", entries, specs, LogLintOptions{})
	if got := findAll(fs, "unrecorded-entry"); len(got) != 1 {
		t.Fatalf("want unrecorded-entry, got %v", fs)
	}
	fs = LintEntries("com.app", entries, specs, LogLintOptions{FullRecord: true})
	if got := findAll(fs, "unrecorded-entry"); len(got) != 0 {
		t.Fatalf("FullRecord should disable the check: %v", got)
	}
}

func TestLintLogReplayHazard(t *testing.T) {
	itf := aidl.MustParse(notifSrc)
	// Entry on handle 7, but the CRIA image only restores handle 3.
	e := entry(t, itf, 1, "enqueueNotification", 7, int32(1), aidl.Object("a"))
	fs := lintFixture(t, []*record.Entry{e}, LogLintOptions{Handles: map[binder.Handle]bool{3: true}})
	got := findAll(fs, "replay-hazard")
	if len(got) != 1 || !strings.Contains(got[0].Message, "7") {
		t.Fatalf("want replay-hazard on handle 7, got %v", fs)
	}
	// With the handle restored, the same entry is clean.
	fs = lintFixture(t, []*record.Entry{e}, LogLintOptions{Handles: map[binder.Handle]bool{7: true}})
	if got := findAll(fs, "replay-hazard"); len(got) != 0 {
		t.Fatalf("restored handle wrongly flagged: %v", got)
	}
	// Without a handle table, the check is off.
	fs = lintFixture(t, []*record.Entry{e}, LogLintOptions{})
	if got := findAll(fs, "replay-hazard"); len(got) != 0 {
		t.Fatalf("nil Handles should disable the check: %v", got)
	}
}

func TestLintLogEmbeddedHandleHazard(t *testing.T) {
	// The request parcel of a binder-typed argument embeds a handle the
	// image does not restore: replay would transact into a hole.
	src := "interface I {\n\t@record\n\tvoid attach(IBinder token);\n}\n"
	itf := aidl.MustParse(src)
	e := entry(t, itf, 1, "attach", 3, binder.Handle(42))
	fs := LintEntries("com.app", []*record.Entry{e},
		map[string]*aidl.Interface{itf.Name: itf},
		LogLintOptions{Handles: map[binder.Handle]bool{3: true}})
	got := findAll(fs, "replay-hazard")
	if len(got) != 1 || !strings.Contains(got[0].Message, "42") {
		t.Fatalf("want replay-hazard for embedded handle 42, got %v", fs)
	}
}

func TestLintLogSeqOrder(t *testing.T) {
	itf := aidl.MustParse(notifSrc)
	entries := []*record.Entry{
		entry(t, itf, 5, "enqueueNotification", 3, int32(1), aidl.Object("a")),
		entry(t, itf, 5, "enqueueNotification", 3, int32(2), aidl.Object("b")),
	}
	fs := lintFixture(t, entries, LogLintOptions{})
	got := findAll(fs, "log-order")
	if len(got) != 1 || !strings.Contains(got[0].Message, "5") {
		t.Fatalf("want log-order for the duplicated seq, got %v", fs)
	}
}

func TestLintLogWholeLog(t *testing.T) {
	// LintLog walks every app shard of a live record.Log.
	itf := aidl.MustParse(notifSrc)
	log := record.NewLog()
	e := entry(t, itf, 1, "enqueueNotification", 3, int32(1), aidl.Object("a"))
	bad := &record.Entry{Seq: 2, App: "com.other", Interface: "IGhost", Method: "boo", Code: 1}
	log.Append(e)
	log.Append(bad)
	fs := LintLog(log, map[string]*aidl.Interface{itf.Name: itf}, LogLintOptions{})
	got := findAll(fs, "log-unknown")
	if len(got) != 1 || got[0].File != "log:com.other" {
		t.Fatalf("want one log-unknown in com.other's slice, got %v", fs)
	}
}

// TestLintLogFileRefusesV1: the retired FLXL v1 whole-blob container is
// no longer read. LintLogFile reports one log-integrity error and lints
// nothing, although the log holds an entry LintLog would flag.
func TestLintLogFileRefusesV1(t *testing.T) {
	l := record.NewLog()
	l.Append(&record.Entry{Seq: 1, App: "com.other", Interface: "IGhost", Method: "boo", Code: 1})
	buf := []byte("FLXL\x01")
	buf = binary.BigEndian.AppendUint32(buf, 1)
	blob := l.MarshalApp("com.other")
	buf = binary.BigEndian.AppendUint32(buf, uint32(len("com.other")))
	buf = append(buf, "com.other"...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
	buf = append(buf, blob...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	path := filepath.Join(t.TempDir(), "legacy.flxl")
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}

	itf := aidl.MustParse(notifSrc)
	fs, err := LintLogFile(path, map[string]*aidl.Interface{itf.Name: itf}, LogLintOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Check != "log-integrity" || fs[0].Severity != Error ||
		!strings.Contains(fs[0].Message, "unsupported format") {
		t.Fatalf("want exactly one log-integrity error, got %v", fs)
	}
	if _, err := LintLogFile(filepath.Join(t.TempDir(), "missing"), nil, LogLintOptions{}); err == nil {
		t.Error("missing file returned no error")
	}
}
