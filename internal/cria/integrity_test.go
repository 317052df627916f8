package cria

// White-box integrity tests for the FXC2 container: per-block CRC32
// verification, legacy-container decoding, and the flate pool's
// error-path hygiene (broken readers must be dropped, never recycled).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"flux/internal/android"
	"flux/internal/kernel"
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

// parseContainer splits a marshalled container into its header values
// and framed blocks ([len][crc?][bytes] triples).
type containerBlock struct {
	crc  uint32
	comp []byte
	off  int // payload offset within the container bytes
}

func parseContainer(t *testing.T, data []byte, withCRC bool) (nCore, nShards uint64, blocks []containerBlock) {
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
		if withCRC {
			b.crc = binary.LittleEndian.Uint32(rest[:4])
			rest = rest[4:]
			off += 4
		}
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
	nCore, nShards, blocks := parseContainer(t, data, true)
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
	_, _, blocks := parseContainer(t, data, true)
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

// TestUnmarshalFXC1Legacy: a checksum-less FXC1 container (the previous
// format, reconstructed by stripping the CRCs from an FXC2 image) still
// decodes to the same image.
func TestUnmarshalFXC1Legacy(t *testing.T) {
	img := integImage()
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	nCore, nShards, blocks := parseContainer(t, data, true)
	legacy := []byte(marshalMagicV1)
	legacy = binary.AppendUvarint(legacy, nCore)
	legacy = binary.AppendUvarint(legacy, nShards)
	for _, b := range blocks {
		legacy = binary.AppendUvarint(legacy, uint64(len(b.comp)))
		legacy = append(legacy, b.comp...)
	}
	got, err := Unmarshal(legacy)
	if err != nil {
		t.Fatalf("legacy FXC1 container did not decode: %v", err)
	}
	if got.Pkg != img.Pkg || len(got.Segments) != len(img.Segments) ||
		!bytes.Equal(got.RecordLog, img.RecordLog) {
		t.Error("legacy decode diverged from the original image")
	}
	// A bit flip in a legacy container is NOT caught by checksums (there
	// are none) but must still surface as an error, not a panic.
	mut := bytes.Clone(legacy)
	mut[len(mut)/2] ^= 0x01
	if _, err := Unmarshal(mut); err == nil {
		t.Log("legacy bit flip decoded cleanly (possible but unlikely); no checksum protection expected")
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
