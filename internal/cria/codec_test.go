package cria

// White-box tests for gobCodec, the primed gob streams behind Marshal and
// Unmarshal: the wire bytes equal fresh gob.NewEncoder streams, foreign
// type ids take the fresh-decoder fallback, nothing a decoded image holds
// aliases the scratch buffer, and broken encoders or decoders never
// return to their free lists.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"flux/internal/android"
	"flux/internal/kernel"
)

// codecImage builds an image that fills every core field. logBytes sets
// the record log's size; incompressible log bytes make a large core span
// several 256 KiB core blocks.
func codecImage(segs, logBytes int, seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	log := make([]byte, logBytes)
	rng.Read(log)
	img := &Image{
		Pkg:            fmt.Sprintf("com.example.codec%d", seed),
		Spec:           android.AppSpec{Package: "com.example.codec", Label: "Codec", Views: []string{"main", "detail"}, HeapBytes: 48 << 20},
		HomeDevice:     "codec-home",
		CheckpointTime: time.Date(2015, 4, 21, 9, 30, 0, int(seed), time.UTC),
		VPID:           int(seed) + 1,
		FDs:            []kernel.FD{{Num: 3, Path: "/dev/binder"}, {Num: 7, Path: "/data/app.db", Offset: 4096}},
		Handles:        []HandleRecord{{Handle: 1, Kind: HandleSystemService, ServiceName: "audio", Descriptor: "android.media.IAudioService"}},
		Ashmem:         []kernel.AshmemRegion{{Name: "dalvik-heap", Size: 1 << 20, Owner: 42, Pinned: true}},
		Runtime: android.RuntimeState{
			Activities:   []android.ActivitySnapshot{{Name: "MainActivity"}},
			SavedState:   map[string]string{"level": "7", "score": fmt.Sprint(seed)},
			Connectivity: []string{"wifi"},
			Receivers:    []string{"android.intent.action.BATTERY_LOW"},
		},
		RecordLog:       log,
		HomeVolumeSteps: 15,
	}
	for i := 0; i < segs; i++ {
		img.Segments = append(img.Segments, kernel.MemSegment{
			Name:    fmt.Sprintf("seg-%d-%d", seed, i),
			Size:    int64(4096 + rng.Intn(1<<20)),
			Entropy: rng.Float64(),
			Gen:     uint64(i % 3),
		})
	}
	return img
}

// referenceMarshal builds the container the way the format was first
// written: a fresh gob.NewEncoder per stream and a fresh flate writer per
// block. Marshal must produce exactly these bytes.
func referenceMarshal(t *testing.T, img *Image) []byte {
	t.Helper()
	var shards [][]kernel.MemSegment
	for off := 0; off < len(img.Segments); off += marshalShardSegs {
		shards = append(shards, img.Segments[off:min(off+marshalShardSegs, len(img.Segments))])
	}
	var coreRaw bytes.Buffer
	if err := gob.NewEncoder(&coreRaw).Encode(&imageCore{
		Pkg:             img.Pkg,
		Spec:            img.Spec,
		HomeDevice:      img.HomeDevice,
		CheckpointTime:  img.CheckpointTime,
		VPID:            img.VPID,
		FDs:             img.FDs,
		Handles:         img.Handles,
		Ashmem:          img.Ashmem,
		Runtime:         runtimeToWire(img.Runtime),
		RecordLog:       img.RecordLog,
		HomeVolumeSteps: img.HomeVolumeSteps,
		SegmentShards:   len(shards),
	}); err != nil {
		t.Fatal(err)
	}
	var raws [][]byte
	for off := 0; off < coreRaw.Len(); off += marshalCoreBlockBytes {
		raws = append(raws, coreRaw.Bytes()[off:min(off+marshalCoreBlockBytes, coreRaw.Len())])
	}
	for _, shard := range shards {
		var sb bytes.Buffer
		if err := gob.NewEncoder(&sb).Encode(shard); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, sb.Bytes())
	}
	digests := img.contentDigests
	magic := marshalMagic
	if digests {
		magic = marshalMagicV3
	}
	if len(img.LogAnchor) > 0 {
		magic = marshalMagicV4
	}
	out := []byte(magic)
	if len(img.LogAnchor) > 0 {
		var flags uint64
		if digests {
			flags = 1
		}
		out = binary.AppendUvarint(out, flags)
		out = binary.AppendUvarint(out, uint64(len(img.LogAnchor)))
		out = append(out, img.LogAnchor...)
	}
	out = binary.AppendUvarint(out, uint64(len(raws)-len(shards)))
	out = binary.AppendUvarint(out, uint64(len(shards)))
	for _, raw := range raws {
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		out = binary.AppendUvarint(out, uint64(comp.Len()))
		out = binary.LittleEndian.AppendUint32(out, blockChecksum(comp.Bytes()))
		if digests {
			sum := sha256.Sum256(raw)
			out = append(out, sum[:]...)
		}
		out = append(out, comp.Bytes()...)
	}
	return out
}

// TestMarshalMatchesFreshGobStreams: every container revision, small and
// multi-block cores, comes out byte-identical to the fresh-stream
// reference — on the first Marshal, which primes the codecs, and on a
// second that reuses their encoders.
func TestMarshalMatchesFreshGobStreams(t *testing.T) {
	cases := []struct {
		name       string
		img        *Image
		digests    bool
		anchor     []byte
		magic      string
		coreBlocks uint64
	}{
		{name: "fxc2", img: codecImage(600, 1<<10, 1), magic: marshalMagic, coreBlocks: 1},
		{name: "fxc3", img: codecImage(300, 1<<10, 2), digests: true, magic: marshalMagicV3, coreBlocks: 1},
		{name: "fxc4", img: codecImage(10, 1<<10, 3), anchor: []byte("anchor"), magic: marshalMagicV4, coreBlocks: 1},
		{name: "fxc4-digests", img: codecImage(0, 0, 4), digests: true, anchor: []byte("anchor"), magic: marshalMagicV4, coreBlocks: 1},
		{name: "fxc2-large-core", img: codecImage(257, 600<<10, 5), magic: marshalMagic, coreBlocks: 3},
		{name: "fxc3-large-core", img: codecImage(40, 300<<10, 6), digests: true, magic: marshalMagicV3, coreBlocks: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.img.SetContentDigests(tc.digests)
			tc.img.SetLogAnchor(tc.anchor)
			want := referenceMarshal(t, tc.img)
			if got := string(want[:4]); got != tc.magic {
				t.Fatalf("reference magic %q, want %q", got, tc.magic)
			}
			if tc.magic != marshalMagicV4 {
				if nCore, _ := binary.Uvarint(want[4:]); nCore != tc.coreBlocks {
					t.Fatalf("core spans %d blocks, want %d", nCore, tc.coreBlocks)
				}
			}
			for pass := 0; pass < 2; pass++ {
				tc.img.Invalidate()
				got, err := tc.img.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("pass %d: Marshal bytes differ from fresh gob streams (%d vs %d bytes)", pass, len(got), len(want))
				}
			}
		})
	}
}

// mirrorCore has imageCore's fields under another type name, so gob gives
// it different type ids: its stream cannot begin with coreCodec's prefix.
type mirrorCore struct {
	Pkg             string
	Spec            android.AppSpec
	HomeDevice      string
	CheckpointTime  time.Time
	VPID            int
	FDs             []kernel.FD
	Handles         []HandleRecord
	Ashmem          []kernel.AshmemRegion
	Runtime         runtimeWire
	RecordLog       []byte
	HomeVolumeSteps int32
	SegmentShards   int
}

// TestCoreDecodeFallsBackForForeignTypeIDs: a stream written with other
// type ids — as another process may assign them — decodes through a
// fresh decoder to the same value the primed path gives.
func TestCoreDecodeFallsBackForForeignTypeIDs(t *testing.T) {
	img := codecImage(3, 512, 7)
	want := imageCore{
		Pkg: img.Pkg, Spec: img.Spec, HomeDevice: img.HomeDevice, CheckpointTime: img.CheckpointTime,
		VPID: img.VPID, FDs: img.FDs, Handles: img.Handles, Ashmem: img.Ashmem,
		Runtime: runtimeToWire(img.Runtime), RecordLog: img.RecordLog, HomeVolumeSteps: img.HomeVolumeSteps,
		SegmentShards: 1,
	}
	e, err := coreCodec.encode(&want)
	if err != nil {
		t.Fatal(err)
	}
	primedStream := bytes.Clone(e.buf.Bytes())
	coreCodec.encs.put(e)
	if _, ok := coreCodec.primer().valueAfterPrefix(primedStream); !ok {
		t.Fatal("coreCodec's own stream does not take the primed path")
	}

	mirror := mirrorCore(want)
	var foreign bytes.Buffer
	if err := gob.NewEncoder(&foreign).Encode(&mirror); err != nil {
		t.Fatal(err)
	}
	if _, ok := coreCodec.primer().valueAfterPrefix(foreign.Bytes()); ok {
		t.Fatal("mirror stream matched the primed prefix; the fallback path is untested")
	}
	for name, stream := range map[string][]byte{"primed": primedStream, "fallback": foreign.Bytes()} {
		var got imageCore
		if err := coreCodec.decode(stream, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded core differs:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// deepCopy clones an image through fresh gob streams, sharing no memory
// with the original or with the codec's buffers.
func deepCopy(t *testing.T, img *Image) *Image {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	var out Image
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	out.LogAnchor = img.LogAnchor
	return &out
}

// TestUnmarshalDoesNotAliasScratch: decoding a second image reuses the
// scratch buffer the first was inflated into; the first decoded image
// must not change.
func TestUnmarshalDoesNotAliasScratch(t *testing.T) {
	wireA, err := codecImage(300, 4<<10, 8).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wireB, err := codecImage(300, 4<<10, 9).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Unmarshal(wireA)
	if err != nil {
		t.Fatal(err)
	}
	before := deepCopy(t, a)
	if !reflect.DeepEqual(a, before) {
		t.Fatal("deep copy differs from its source")
	}
	for i := 0; i < 4; i++ {
		if _, err := Unmarshal(wireB); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(a, before) {
		t.Fatal("first decoded image changed after a second Unmarshal: it aliases the scratch buffer")
	}
}

// TestGobDecoderFreeListNotPoisoned: a stream with the valid descriptor
// prefix but a corrupt value message fails on a primed decoder, which
// must then be dropped — interleaved good streams keep decoding.
func TestGobDecoderFreeListNotPoisoned(t *testing.T) {
	img := codecImage(2, 256, 10)
	want := imageCore{Pkg: img.Pkg, Spec: img.Spec, RecordLog: img.RecordLog, Runtime: runtimeToWire(img.Runtime)}
	e, err := coreCodec.encode(&want)
	if err != nil {
		t.Fatal(err)
	}
	good := bytes.Clone(e.buf.Bytes())
	coreCodec.encs.put(e)

	p := coreCodec.primer()
	value, _ := p.valueAfterPrefix(good)
	header := gobUintLen(value) + len(p.id)
	garbled := bytes.Clone(good)
	for i := len(p.prefix) + header; i < len(garbled); i++ {
		garbled[i] = 0xff
	}
	bad := map[string][]byte{
		"truncated": good[:len(good)-1],
		"garbled":   garbled,
	}
	for name, stream := range bad {
		if _, ok := p.valueAfterPrefix(stream); !ok {
			t.Fatalf("%s: corrupt stream does not reach the primed decoder", name)
		}
	}
	for i := 0; i < 64; i++ {
		for name, stream := range bad {
			var got imageCore
			if err := coreCodec.decode(stream, &got); err == nil {
				t.Fatalf("iteration %d: %s value message decoded cleanly", i, name)
			}
		}
		var got imageCore
		if err := coreCodec.decode(good, &got); err != nil {
			t.Fatalf("iteration %d: valid stream failed after a corrupt decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: valid stream decoded wrong after a corrupt decode", i)
		}
	}
}

// TestConcurrentMarshalUnmarshal: goroutines sharing the codecs' free
// lists produce the same bytes and images as a sequential run. Run it
// under -race (make race).
func TestConcurrentMarshalUnmarshal(t *testing.T) {
	const n = 8
	build := func(i int) *Image {
		img := codecImage(i*97, (i%3)*(1<<10), int64(100+i))
		img.SetContentDigests(i%2 == 1)
		if i%4 == 3 {
			img.SetLogAnchor([]byte("anchor"))
		}
		return img
	}
	wire := make([][]byte, n)
	decoded := make([]*Image, n)
	for i := range wire {
		data, err := build(i).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = bytes.Clone(data)
		if decoded[i], err = Unmarshal(wire[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := 0; j < n; j++ {
					i := (j + g) % n
					data, err := build(i).Marshal()
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(data, wire[i]) {
						t.Errorf("image %d: concurrent Marshal bytes differ from sequential", i)
					}
					img, err := Unmarshal(data)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(img, decoded[i]) {
						t.Errorf("image %d: concurrent Unmarshal differs from sequential", i)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// gobAgree decodes data as T through c and through a fresh decoder; both
// must fail, or both succeed with equal values.
func gobAgree[T any](t *testing.T, c *gobCodec[T], data []byte) {
	t.Helper()
	var primed, fresh T
	errP := c.decode(data, &primed)
	errF := gob.NewDecoder(bytes.NewReader(data)).Decode(&fresh)
	if (errP == nil) != (errF == nil) {
		t.Fatalf("%T: codec error %v, fresh decoder error %v", primed, errP, errF)
	}
	if errP != nil || reflect.DeepEqual(primed, fresh) {
		return
	}
	// NaN floats are never DeepEqual; equal values re-encode identically.
	var a, b bytes.Buffer
	if gob.NewEncoder(&a).Encode(&primed) != nil || gob.NewEncoder(&b).Encode(&fresh) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%T: codec and fresh decoder disagree:\n codec %+v\n fresh %+v", primed, primed, fresh)
	}
}

// FuzzGobCodec: for any input the primed decode and a fresh
// gob.NewDecoder agree, for both wire types. Each input is decoded twice,
// so a decoder recycled with stale state shows up as a disagreement on
// the second call.
func FuzzGobCodec(f *testing.F) {
	img := codecImage(3, 64, 11)
	e, err := coreCodec.encode(&imageCore{Pkg: img.Pkg, Spec: img.Spec, Runtime: runtimeToWire(img.Runtime), RecordLog: img.RecordLog, SegmentShards: 1})
	if err != nil {
		f.Fatal(err)
	}
	core := bytes.Clone(e.buf.Bytes())
	coreCodec.encs.put(e)
	s, err := shardCodec.encode(&img.Segments)
	if err != nil {
		f.Fatal(err)
	}
	shard := bytes.Clone(s.buf.Bytes())
	shardCodec.encs.put(s)

	// The core prefix, then a definition of a type the prefix lacks and a
	// value of it: a decoder that took this path and was recycled would
	// refuse the definition as a duplicate on the next call.
	var def bytes.Buffer
	enc := gob.NewEncoder(&def)
	if err := enc.Encode(&imageCore{}); err != nil {
		f.Fatal(err)
	}
	def.Reset()
	if err := enc.Encode(&mirrorCore{Pkg: "mirror"}); err != nil {
		f.Fatal(err)
	}

	f.Add(core)
	f.Add(shard)
	f.Add(append(bytes.Clone(coreCodec.primer().prefix), def.Bytes()...))
	f.Add(coreCodec.primer().prefix)
	f.Add(core[:len(core)-2])
	f.Add(append(bytes.Clone(shard), shard[len(shardCodec.primer().prefix):]...))
	f.Add(append(bytes.Clone(coreCodec.primer().prefix), shard...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for i := 0; i < 2; i++ {
			gobAgree(t, coreCodec, data)
			gobAgree(t, shardCodec, data)
		}
	})
}
