package cria

// White-box integrity tests for the FXC2 container: per-block CRC32
// verification, refusal of the retired formats, and the flate pool's
// error-path hygiene (broken readers must be dropped, never recycled).

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"flux/internal/android"
	"flux/internal/kernel"
	"flux/internal/record"
	"flux/internal/seglog"
)

func integImage() *Image {
	return &Image{
		Pkg:  "com.example.integrity",
		Spec: android.AppSpec{Package: "com.example.integrity"},
		Segments: []kernel.MemSegment{
			{Name: "heap", Size: 300_000, Entropy: 0.5},
			{Name: "tex", Size: 120_000, Entropy: 0.31},
		},
		Runtime:   android.RuntimeState{SavedState: map[string]string{"k": "v", "x": "y"}},
		RecordLog: []byte("record-log-payload-0123456789"),
	}
}

// parseContainer splits a marshalled FXC2 container into its header
// values and framed blocks ([len][crc][bytes] triples).
type containerBlock struct {
	crc  uint32
	comp []byte
	off  int // payload offset within the container bytes
}

func parseContainer(t *testing.T, data []byte) (nCore, nShards uint64, blocks []containerBlock) {
	t.Helper()
	rest := data[len(marshalMagic):]
	var n int
	nCore, n = binary.Uvarint(rest)
	if n <= 0 {
		t.Fatal("bad core count")
	}
	rest = rest[n:]
	nShards, n = binary.Uvarint(rest)
	if n <= 0 {
		t.Fatal("bad shard count")
	}
	rest = rest[n:]
	off := len(data) - len(rest)
	for len(rest) > 0 {
		ln, n := binary.Uvarint(rest)
		if n <= 0 {
			t.Fatal("bad block length")
		}
		rest = rest[n:]
		off += n
		var b containerBlock
		b.crc = binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		off += 4
		b.comp = rest[:ln]
		b.off = off
		rest = rest[ln:]
		off += int(ln)
		blocks = append(blocks, b)
	}
	return nCore, nShards, blocks
}

// TestContainerChecksumsPresent: every FXC2 block carries a CRC32 that
// matches its compressed bytes.
func TestContainerChecksumsPresent(t *testing.T) {
	data, err := integImage().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:4]) != marshalMagic {
		t.Fatalf("magic = %q, want %q", data[:4], marshalMagic)
	}
	nCore, nShards, blocks := parseContainer(t, data)
	if uint64(len(blocks)) != nCore+nShards {
		t.Fatalf("%d blocks framed, header promises %d", len(blocks), nCore+nShards)
	}
	for i, b := range blocks {
		if got := blockChecksum(b.comp); got != b.crc {
			t.Errorf("block %d: stored crc %08x != computed %08x", i, b.crc, got)
		}
	}
}

// TestUnmarshalDetectsBitFlip: flipping one payload bit anywhere in any
// block is caught by the CRC check and reported as ErrChecksum — before
// any DEFLATE or gob machinery sees the corrupt bytes.
func TestUnmarshalDetectsBitFlip(t *testing.T) {
	img := integImage()
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, _, blocks := parseContainer(t, data)
	for i, b := range blocks {
		if len(b.comp) == 0 {
			continue
		}
		mut := bytes.Clone(data)
		mut[b.off+len(b.comp)/2] ^= 0x40
		if _, err := Unmarshal(mut); !errors.Is(err, ErrChecksum) {
			t.Errorf("block %d: bit flip not caught by checksum (err=%v)", i, err)
		}
	}
}

// legacyBytes builds one seed-format image: a single gob stream behind
// a single DEFLATE stream, with no container magic.
func legacyBytes(tb testing.TB) []byte {
	tb.Helper()
	type legacyImage struct {
		Pkg       string
		Segments  []kernel.MemSegment
		RecordLog []byte
	}
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(&legacyImage{
		Pkg:       "com.example.legacy",
		Segments:  []kernel.MemSegment{{Name: "heap", Size: 1 << 16, Entropy: 0.4}},
		RecordLog: []byte("legacy-log"),
	}); err != nil {
		tb.Fatal(err)
	}
	comp, err := deflate(raw.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	return comp
}

// fxc1Bytes rebuilds the checksum-less FXC1 container by stripping the
// CRCs from an FXC2 image and relabelling its magic.
func fxc1Bytes(t *testing.T) []byte {
	t.Helper()
	data, err := integImage().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	nCore, nShards, blocks := parseContainer(t, data)
	out := []byte("FXC1")
	out = binary.AppendUvarint(out, nCore)
	out = binary.AppendUvarint(out, nShards)
	for _, b := range blocks {
		out = binary.AppendUvarint(out, uint64(len(b.comp)))
		out = append(out, b.comp...)
	}
	return out
}

// flxlV1File writes the retired v1 whole-blob record log (magic FLXL,
// version 1, per-app blobs, trailing CRC32) by hand and returns its path.
func flxlV1File(t *testing.T) string {
	t.Helper()
	l := record.NewLog()
	l.Append(&record.Entry{App: "com.a", Service: "notification", Interface: "INotificationManager", Method: "set", Code: 1, Handle: 2})
	l.Append(&record.Entry{App: "com.b", Service: "notification", Interface: "INotificationManager", Method: "enqueueNotification", Code: 1, Handle: 2})
	buf := []byte("FLXL\x01")
	apps := l.Apps()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(apps)))
	for _, app := range apps {
		blob := l.MarshalApp(app)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(app)))
		buf = append(buf, app...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	path := filepath.Join(t.TempDir(), "legacy.flxl")
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOldFormatsRefused: the seed gob+flate image, the FXC1 container
// and the FLXL v1 record log are no longer decoded. Every public decoder
// that used to accept one refuses it with ErrUnsupportedFormat.
func TestOldFormatsRefused(t *testing.T) {
	seed, fxc1, flxl := legacyBytes(t), fxc1Bytes(t), flxlV1File(t)
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"seed gob+flate image", func() error { _, err := Unmarshal(seed); return err }},
		{"FXC1 container", func() error { _, err := Unmarshal(fxc1); return err }},
		{"FLXL v1 log via LoadFile", func() error { _, err := record.LoadFile(flxl); return err }},
		{"FLXL v1 log via RecoverFile", func() error { _, _, err := record.RecoverFile(flxl); return err }},
	} {
		if err := tc.decode(); !errors.Is(err, seglog.ErrUnsupportedFormat) {
			t.Errorf("%s: err = %v, want ErrUnsupportedFormat", tc.name, err)
		}
	}
}

// TestInflateTruncatedDoesNotPoisonPool is the regression fence for the
// pooled-reader bug: a reader that fails mid-decode must be dropped, so
// interleaved failing and succeeding decodes never observe a broken
// reader from the pool. Every decode appends into one reused scratch
// buffer, as Unmarshal does.
func TestInflateTruncatedDoesNotPoisonPool(t *testing.T) {
	raw := bytes.Repeat([]byte("integrity-pool-check-"), 512)
	comp, err := deflate(raw)
	if err != nil {
		t.Fatal(err)
	}
	truncated := comp[:len(comp)/2]
	var scratch []byte
	for i := 0; i < 64; i++ {
		if _, err := inflate(scratch[:0], truncated); err == nil {
			t.Fatal("truncated DEFLATE stream decoded cleanly")
		}
		got, err := inflate(scratch[:0], comp)
		if err != nil {
			t.Fatalf("iteration %d: valid stream failed after a truncated decode: %v", i, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("iteration %d: round trip corrupted", i)
		}
		scratch = got
	}
	// Garbage that fails at Reset/first-read must be equally harmless.
	garbage := []byte{0xff, 0xff, 0x00, 0x01, 0x02}
	for i := 0; i < 16; i++ {
		if _, err := inflate(nil, garbage); err == nil {
			t.Fatal("garbage stream decoded cleanly")
		}
	}
	if got, err := inflate(nil, comp); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("valid stream failed after garbage decodes: %v", err)
	}
}

// TestUnmarshalTruncatedChecksumHeader: cutting the container inside a
// block's CRC field errors cleanly.
func TestUnmarshalTruncatedChecksumHeader(t *testing.T) {
	data, err := integImage().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Header is magic + two uvarints; the next bytes are the first
	// block's length varint followed by its CRC. Cut mid-CRC.
	cut := len(marshalMagic) + 2 + 1 + 2
	if cut > len(data) {
		t.Skip("container smaller than synthetic cut point")
	}
	if _, err := Unmarshal(data[:cut]); err == nil {
		t.Error("truncated container decoded cleanly")
	}
}

// TestAnchoredContainerRoundTrip covers the FXC4 revision: an image
// carrying a record-log anchor marshals under the FXC4 magic, the
// anchor survives the round trip, and an anchor-free image still
// produces byte-identical FXC2/FXC3 output.
func TestAnchoredContainerRoundTrip(t *testing.T) {
	plain := integImage()
	plainWire, err := plain.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(plainWire[:4]) != marshalMagic {
		t.Fatalf("anchor-free image marshals as %q, want %q", plainWire[:4], marshalMagic)
	}

	for _, digests := range []bool{false, true} {
		img := integImage()
		img.SetContentDigests(digests)
		img.SetLogAnchor([]byte("opaque-anchor-wire-bytes"))
		wire, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(wire[:4]) != marshalMagicV4 {
			t.Fatalf("anchored image marshals as %q, want %q", wire[:4], marshalMagicV4)
		}
		back, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("digests=%v: %v", digests, err)
		}
		if !bytes.Equal(back.LogAnchor, img.LogAnchor) {
			t.Errorf("digests=%v: anchor did not round-trip", digests)
		}
		if !bytes.Equal(back.RecordLog, img.RecordLog) {
			t.Errorf("digests=%v: record log did not round-trip", digests)
		}
		if len(back.Segments) != len(img.Segments) {
			t.Errorf("digests=%v: segments = %d, want %d", digests, len(back.Segments), len(img.Segments))
		}
		// Corrupting a block inside an FXC4 container is still caught by
		// the CRC layer.
		mut := bytes.Clone(wire)
		mut[len(mut)-3] ^= 0x40
		if _, err := Unmarshal(mut); err == nil {
			t.Errorf("digests=%v: corrupted FXC4 container decoded cleanly", digests)
		}
	}
}

// TestSetLogAnchorInvalidatesCache: attaching an anchor after a Marshal
// must drop the memoized wire bytes, or WireBytes would report the
// anchor-free container.
func TestSetLogAnchorInvalidatesCache(t *testing.T) {
	img := integImage()
	w1, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	img.SetLogAnchor([]byte("abcd"))
	w2, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(w1, w2) {
		t.Fatal("Marshal after SetLogAnchor returned the stale cached wire")
	}
	img.SetLogAnchor([]byte("abcd")) // same value: no invalidation needed
	w3, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w2, w3) {
		t.Fatal("idempotent SetLogAnchor changed the wire")
	}
}
