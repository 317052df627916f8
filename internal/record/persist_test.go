package record

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flux/internal/binder"
)

func sampleEntry(app, method string, seq int) *Entry {
	p := binder.NewParcel()
	p.WriteInt32(int32(seq))
	p.WriteString("payload")
	return &Entry{
		App: app, Service: "notification", Interface: "INotificationManager",
		Method: method, Code: 1, Handle: 2,
		At:   time.Unix(0, int64(seq)*1e9).UTC(),
		Data: p.Marshal(),
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(sampleEntry("com.a", "enqueueNotification", i))
	}
	l.Append(sampleEntry("com.b", "cancelNotification", 9))

	path := filepath.Join(t.TempDir(), "record.flxg")
	if err := l.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got := len(back.AppEntries("com.a")); got != 5 {
		t.Errorf("com.a entries = %d", got)
	}
	if got := len(back.AppEntries("com.b")); got != 1 {
		t.Errorf("com.b entries = %d", got)
	}
	e := back.AppEntries("com.a")[2]
	if e.Method != "enqueueNotification" || e.Handle != 2 {
		t.Errorf("entry = %+v", e)
	}
	p, err := e.Parcel()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MustInt32(); got != 2 {
		t.Errorf("payload seq = %d", got)
	}
}

func TestLoadFileRejectsCorruption(t *testing.T) {
	l := NewLog()
	l.Append(sampleEntry("com.a", "m", 1))
	path := filepath.Join(t.TempDir(), "record.flxg")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle: the checksum must catch it.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("LoadFile accepted corrupted file")
	}
}

func TestLoadFileRejectsJunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a log"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("LoadFile accepted junk")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("LoadFile accepted missing file")
	}
}

// TestRecoverFileHealsTornTail: a crash mid-write leaves a torn v2
// file; RecoverFile must come back with a prefix, never an error.
func TestRecoverFileHealsTornTail(t *testing.T) {
	l := NewLog()
	for i := 0; i < 12; i++ {
		l.Append(sampleEntry("com.a", "set", i))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "record.flxg")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Strict load refuses the torn file; tolerant recovery heals it.
	torn := filepath.Join(dir, "torn.flxg")
	if err := os.WriteFile(torn, data[:len(data)-7], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(torn); err == nil {
		t.Fatal("strict LoadFile accepted a torn file")
	}
	back, rec, err := RecoverFile(torn)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if !rec.Truncated {
		t.Error("recovery did not report truncation")
	}
	if got := back.Len(); got == 0 || got > 12 {
		t.Errorf("recovered %d entries", got)
	}
}

func TestSaveFileEmptyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.flxg")
	if err := NewLog().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("empty round trip has %d entries", back.Len())
	}
}

// TestAnchorVerifyRoundTrip: the home-side anchor over a MarshalApp
// blob verifies the honest blob, and any single flipped payload bit —
// or a re-decoded entry set — is caught.
func TestAnchorVerifyRoundTrip(t *testing.T) {
	l := NewLog()
	for i := 0; i < 20; i++ {
		l.Append(sampleEntry("com.a", "set", i))
	}
	blob := l.MarshalApp("com.a")
	anchor, err := AnchorWire(blob)
	if err != nil {
		t.Fatalf("AnchorWire: %v", err)
	}
	if err := VerifyAnchor(blob, anchor); err != nil {
		t.Fatalf("honest blob failed verification: %v", err)
	}
	// The decoded-entries path (what replay runs) verifies too — the
	// EntryWire fixed point holds.
	entries, err := UnmarshalEntries(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEntriesAnchor(entries, anchor); err != nil {
		t.Fatalf("decoded entries failed verification: %v", err)
	}
	// One flipped bit anywhere in the blob body fails (or fails to
	// parse — either way, never verifies clean).
	for off := 4; off < len(blob); off += 7 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x01
		if err := VerifyAnchor(mut, anchor); err == nil {
			t.Fatalf("flipped bit at offset %d verified clean", off)
		}
	}
	// Dropping the last entry fails the count check.
	short := NewLog()
	for _, e := range entries[:19] {
		short.Append(e)
	}
	if err := VerifyEntriesAnchor(UnmarshalMust(t, short.MarshalApp("com.a")), anchor); err == nil {
		t.Fatal("shortened log verified clean")
	}
}

func UnmarshalMust(t *testing.T, blob []byte) []*Entry {
	t.Helper()
	es, err := UnmarshalEntries(blob)
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// TestEntryWireFixedPoint: EntryWire(decode(w)) == w for entries with
// nil, empty, and non-empty replies — the property anchor verification
// on the guest depends on.
func TestEntryWireFixedPoint(t *testing.T) {
	cases := []*Entry{
		sampleEntry("com.a", "m", 1), // nil reply
		func() *Entry { e := sampleEntry("com.a", "m", 2); e.Reply = []byte{}; return e }(),     // empty reply
		func() *Entry { e := sampleEntry("com.a", "m", 3); e.Reply = []byte{9, 8}; return e }(), // real reply
	}
	for i, e := range cases {
		w := EntryWire(e)
		back, consumed, err := decodeEntry(w)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if consumed != len(w) {
			t.Fatalf("case %d: consumed %d of %d", i, consumed, len(w))
		}
		if got := EntryWire(back); !bytes.Equal(got, w) {
			t.Fatalf("case %d: EntryWire not a fixed point", i)
		}
		if (e.Reply == nil) != (back.Reply == nil) {
			t.Fatalf("case %d: reply nilness drifted", i)
		}
	}
}
