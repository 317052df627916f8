package cria

// Image serialization: a chunk-parallel container format.
//
// The seed serialized an image as one gob stream behind one DEFLATE
// stream — strictly sequential, re-run on every WireBytes call. This file
// replaces it with a parallel, memoized path:
//
//   - The image is split into a *core* record (metadata, descriptor and
//     handle tables, record log) and fixed-size shards of the memory
//     segment table. The core's gob bytes are cut into fixed-size blocks;
//     every block and every shard is DEFLATE-compressed independently by a
//     bounded worker pool (GOMAXPROCS-wide), then reassembled in
//     deterministic index order, so output bytes are identical at any
//     parallelism.
//   - flate writers/readers are sync.Pool-backed: the steady-state Marshal
//     path does not re-allocate the ~1 MB flate window per call
//     (BenchmarkImageMarshal tracks allocs/op).
//   - gob's per-stream type machinery is paid once per process, not once
//     per stream (gobCodec). Each wire type — the core and a segment
//     shard — keeps a bounded free list of encoders and decoders that
//     have already seen its type descriptors; an encoder writes the
//     captured descriptor prefix and then only the value message, so the
//     bytes equal a fresh gob.NewEncoder stream's. Unmarshal inflates
//     every block into one reused scratch buffer, which gob copies out of.
//   - Marshal output is memoized on the Image; WireBytes — called on the
//     migration hot path — reuses it instead of re-running gob+flate.
//     Mutating an Image after a Marshal requires Invalidate().
//   - The runtime snapshot's SavedState map is serialized as key-sorted
//     pairs, making the wire bytes (and therefore CompressedImageBytes)
//     deterministic across runs — gob's native map encoding is not.
//
// The container carries a CRC32 (Castagnoli) checksum per compressed
// block, written between the block's length and its bytes. Unmarshal
// verifies every checksum before inflating, so wire corruption is
// detected deterministically (and cheaply) instead of surfacing as a
// DEFLATE or gob error deep in the decode — the migration fault-recovery
// path relies on this to re-request exactly the corrupt chunk.
//
// Unmarshal transparently decodes the two legacy formats: FXC1
// containers (the checksum-less predecessor) and the seed's single
// gob+flate stream. A legacy stream can never start with either magic
// (its first byte would decode as an invalid DEFLATE block type).

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"flux/internal/android"
	"flux/internal/kernel"
)

const (
	// marshalMagic tags the default chunk-parallel container format:
	// per-block CRC32 checksums between each block length and its bytes.
	marshalMagic = "FXC2"
	// marshalMagicV1 tags the checksum-less predecessor container;
	// still decoded, never produced.
	marshalMagicV1 = "FXC1" //fluxvet:allow wire-drift — legacy decode-only format: Unmarshal accepts it, nothing encodes it anymore
	// marshalMagicV3 tags the content-addressed container revision: each
	// block carries, after its CRC32, a SHA-256 digest of the block's
	// UNCOMPRESSED bytes. The digest is the block's content identity for
	// the delta-migration chunk cache (internal/chunkstore); Unmarshal
	// verifies it after inflating, so a poisoned cache entry whose framing
	// still CRCs clean is caught deterministically. Produced only when the
	// image opted in via SetContentDigests — FXC2 stays the default so
	// cache-disabled runs are byte-identical to before.
	marshalMagicV3 = "FXC3"
	// marshalMagicV4 tags the anchored container revision: after the
	// magic come a uvarint flags word (bit 0 = per-block content
	// digests), a uvarint-length-prefixed record-log anchor (seglog wire
	// form, self-checksummed), then the FXC2/FXC3 block layout. Produced
	// only when the image carries a LogAnchor, so anchor-free images
	// keep their exact legacy wire bytes.
	marshalMagicV4 = "FXC4"
	// marshalCoreBlockBytes is the raw gob bytes per parallel-compressed
	// core block. Fixed (not GOMAXPROCS-derived) so the container bytes
	// are machine-independent.
	marshalCoreBlockBytes = 256 << 10
	// marshalShardSegs is the number of memory-segment records per
	// parallel gob+DEFLATE shard.
	marshalShardSegs = 256
)

// imageCore is the wire form of everything except the segment table.
type imageCore struct {
	Pkg            string
	Spec           android.AppSpec
	HomeDevice     string
	CheckpointTime time.Time
	VPID           int

	FDs     []kernel.FD
	Handles []HandleRecord
	Ashmem  []kernel.AshmemRegion
	Runtime runtimeWire

	RecordLog       []byte
	HomeVolumeSteps int32

	// SegmentShards is the shard count that follows the core blocks.
	SegmentShards int
}

// kvPair is one SavedState entry in deterministic (key-sorted) order.
type kvPair struct{ K, V string }

// runtimeWire is android.RuntimeState with its map flattened to sorted
// pairs so gob output is byte-deterministic.
type runtimeWire struct {
	Activities   []android.ActivitySnapshot
	SavedState   []kvPair
	Connectivity []string
	Receivers    []string
}

func runtimeToWire(st android.RuntimeState) runtimeWire {
	w := runtimeWire{
		Activities:   st.Activities,
		Connectivity: st.Connectivity,
		Receivers:    st.Receivers,
	}
	if len(st.SavedState) > 0 {
		w.SavedState = make([]kvPair, 0, len(st.SavedState))
		for k, v := range st.SavedState {
			w.SavedState = append(w.SavedState, kvPair{K: k, V: v})
		}
		sort.Slice(w.SavedState, func(i, j int) bool { return w.SavedState[i].K < w.SavedState[j].K })
	}
	return w
}

func runtimeFromWire(w runtimeWire) android.RuntimeState {
	st := android.RuntimeState{
		Activities:   w.Activities,
		Connectivity: w.Connectivity,
		Receivers:    w.Receivers,
	}
	if len(w.SavedState) > 0 {
		st.SavedState = make(map[string]string, len(w.SavedState))
		for _, kv := range w.SavedState {
			st.SavedState[kv.K] = kv.V
		}
	}
	return st
}

// Pools for the flate hot path. A flate.Writer carries ~1 MB of window
// state; re-allocating it per segment shard is what the seed's profile was
// dominated by.
var (
	flateWriterPool = sync.Pool{New: func() any {
		w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level
		}
		return w
	}}
	flateReaderPool = sync.Pool{New: func() any {
		return flate.NewReader(bytes.NewReader(nil))
	}}
	bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// deflate compresses raw with a pooled writer, returning a fresh slice.
// On any error the writer is dropped, not recycled: a flate.Writer that
// failed a Write or Close may hold broken window/stream state, and a
// sync.Pool must only ever contain known-good objects. The scratch
// buffer is plain bytes and is always safe to recycle (it is Reset on
// every Get).
func deflate(raw []byte) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	w := flateWriterPool.Get().(*flate.Writer)
	w.Reset(buf)
	if _, err := w.Write(raw); err != nil {
		return nil, err // drop w: state unknown after a failed Write
	}
	if err := w.Close(); err != nil {
		return nil, err // drop w: state unknown after a failed Close
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	flateWriterPool.Put(w)
	return out, nil
}

// inflate appends the decompression of one block to dst, reading with a
// pooled flate reader, and returns the extended slice. Error paths drop
// the reader instead of recycling it: after a failed Reset, Read, or
// Close the decompressor's internal state is undefined, and returning it
// to the pool would hand a broken reader to an unrelated future decode
// (the bug this comment is the regression fence for — see
// TestInflateTruncatedDoesNotPoisonPool).
func inflate(dst, comp []byte) ([]byte, error) {
	r := flateReaderPool.Get().(io.ReadCloser)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return nil, err // drop r
	}
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err // drop r
		}
	}
	if err := r.Close(); err != nil {
		return nil, err // drop r
	}
	flateReaderPool.Put(r)
	return dst, nil
}

// freeList is a stack of reusable objects bounded at GOMAXPROCS, enough
// for one per concurrent codec user. Unlike a sync.Pool it survives
// garbage collection: the migration workloads collect every few dozen
// images, and a pool emptied that often would re-prime gob streams on
// almost every call.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

func (l *freeList[T]) get() (item T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.items); n > 0 {
		item, ok = l.items[n-1], true
		var zero T
		l.items[n-1] = zero
		l.items = l.items[:n-1]
	}
	return item, ok
}

func (l *freeList[T]) put(item T) {
	l.mu.Lock()
	if len(l.items) < runtime.GOMAXPROCS(0) {
		l.items = append(l.items, item)
	}
	l.mu.Unlock()
}

// gobCodec writes and reads one wire type T as self-contained gob
// streams, byte-identical to gob.NewEncoder(w).Encode(v). A fresh
// encoder writes T's type-descriptor messages and then the value
// message; gobCodec captures that descriptor prefix once and recycles
// encoders and decoders that have already seen it, so a stream costs
// only its value message. Like the flate readers, an encoder or decoder
// that returned an error is dropped, never recycled.
type gobCodec[T any] struct {
	primer func() gobPrimer
	encs   freeList[*gobEncoder]
	decs   freeList[*gobDecoder]
}

// gobPrimer is what a fresh encoder writes for T's zero value.
type gobPrimer struct {
	stream []byte // prefix, then the zero value's message: primes decoders
	prefix []byte // the type-descriptor messages alone
	id     []byte // T's gob type id as it opens every value message of T
}

type gobEncoder struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

type gobDecoder struct {
	r   bytes.Reader
	dec *gob.Decoder
}

// newGobCodec primes lazily, on first use: binaries that never touch an
// image pay nothing, and gob assigns its process-global type ids in the
// order the wire types are first used (core before shard).
func newGobCodec[T any]() *gobCodec[T] {
	return &gobCodec[T]{primer: sync.OnceValue(func() gobPrimer {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		var zero T
		if err := enc.Encode(&zero); err != nil {
			panic(fmt.Sprintf("cria: priming gob for %T: %v", zero, err)) // the wire types are static
		}
		stream := bytes.Clone(buf.Bytes())
		buf.Reset()
		if err := enc.Encode(&zero); err != nil {
			panic(fmt.Sprintf("cria: priming gob for %T: %v", zero, err))
		}
		value := buf.Bytes()
		if !bytes.HasSuffix(stream, value) {
			panic(fmt.Sprintf("cria: gob stream for %T does not end in its value message", zero))
		}
		n := gobUintLen(value)
		return gobPrimer{
			stream: stream,
			prefix: stream[:len(stream)-len(value)],
			id:     bytes.Clone(value[n : n+gobUintLen(value[n:])]),
		}
	})}
}

// encode writes v's full stream into a primed encoder's buffer. Put the
// encoder back on c.encs once its buffer is no longer referenced.
func (c *gobCodec[T]) encode(v *T) (*gobEncoder, error) {
	p := c.primer()
	e, ok := c.encs.get()
	if !ok {
		e = new(gobEncoder)
		e.enc = gob.NewEncoder(&e.buf)
		if err := e.enc.Encode(new(T)); err != nil {
			return nil, err
		}
	}
	e.buf.Reset()
	e.buf.Write(p.prefix)
	if err := e.enc.Encode(v); err != nil {
		return nil, err // drop e: its sent-type state is unknown
	}
	return e, nil
}

// decode reads one stream into v. A stream that opens with exactly the
// captured prefix and then a value message of T goes to a primed
// decoder. Anything else — including a stream written by another
// process, whose type ids may differ because gob assigns them per
// process — goes to a fresh decoder, so both paths decode alike.
func (c *gobCodec[T]) decode(raw []byte, v *T) error {
	p := c.primer()
	rest, ok := p.valueAfterPrefix(raw)
	if !ok {
		return gob.NewDecoder(bytes.NewReader(raw)).Decode(v)
	}
	d, ok := c.decs.get()
	if !ok {
		d = new(gobDecoder)
		d.dec = gob.NewDecoder(&d.r)
		d.r.Reset(p.stream)
		if err := d.dec.Decode(new(T)); err != nil {
			return err
		}
	}
	d.r.Reset(rest)
	err := d.dec.Decode(v)
	d.r.Reset(nil)
	if err != nil {
		return err // drop d: its decoder state is unknown
	}
	c.decs.put(d)
	return nil
}

// valueAfterPrefix returns what follows the descriptor prefix when raw
// opens with exactly that prefix and then a value message of T: a message
// length, then T's type id. Only such a remainder leaves a primed
// decoder's state as it found it, since only type-definition messages
// add to a gob decoder's type table.
func (p gobPrimer) valueAfterPrefix(raw []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(raw, p.prefix)
	n := gobUintLen(rest)
	return rest, ok && n > 0 && bytes.HasPrefix(rest[n:], p.id)
}

// gobUintLen is the byte length of the gob-encoded unsigned integer that
// opens b (a message length, or a type id), or 0 if b does not open
// with one. gob writes values below 128 as one byte, larger ones as a
// negated byte count followed by that many big-endian bytes.
func gobUintLen(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	if b[0] < 0x80 {
		return 1
	}
	n := 1 - int(int8(b[0]))
	if n > 9 || n > len(b) {
		return 0
	}
	return n
}

var (
	coreCodec  = newGobCodec[imageCore]()
	shardCodec = newGobCodec[[]kernel.MemSegment]()
	// scratchBufs holds Unmarshal's inflate buffers. gob copies every
	// byte slice and string out of them, so no decoded image aliases one.
	scratchBufs freeList[[]byte]
)

// Marshal serializes the image metadata and compresses it, memoizing the
// result on the Image (Migrate computes WireBytes and then re-serializes
// for the guest; both now share one encoding pass). The returned slice is
// the shared cached buffer: treat it as read-only. Call Invalidate after
// mutating the image. The returned wire size excludes the memory payload,
// which the migration pipeline accounts separately via
// CompressedPayloadBytes.
func (img *Image) Marshal() ([]byte, error) {
	img.mu.Lock()
	defer img.mu.Unlock()
	if img.cachedWire != nil {
		return img.cachedWire, nil
	}
	data, err := img.marshalLocked()
	if err != nil {
		return nil, err
	}
	img.cachedWire = data
	return data, nil
}

// Invalidate drops the memoized Marshal/WireBytes result. Call it after
// mutating any field of an already-serialized image.
func (img *Image) Invalidate() {
	img.mu.Lock()
	img.cachedWire = nil
	img.mu.Unlock()
}

func (img *Image) marshalLocked() ([]byte, error) {
	// Shard the segment table into fixed-size runs.
	var shards [][]kernel.MemSegment
	for off := 0; off < len(img.Segments); off += marshalShardSegs {
		end := off + marshalShardSegs
		if end > len(img.Segments) {
			end = len(img.Segments)
		}
		shards = append(shards, img.Segments[off:end])
	}
	core := imageCore{
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
	}
	coreEnc, err := coreCodec.encode(&core)
	if err != nil {
		return nil, fmt.Errorf("cria: encoding image core: %w", err)
	}
	defer coreCodec.encs.put(coreEnc) // out never aliases coreRaw
	coreRaw := coreEnc.buf.Bytes()
	nCoreBlocks := (len(coreRaw) + marshalCoreBlockBytes - 1) / marshalCoreBlockBytes
	if nCoreBlocks == 0 {
		nCoreBlocks = 1 // gob of a struct is never empty, but keep the format total
	}

	// One job per core block and per segment shard; a GOMAXPROCS-bounded
	// worker pool fills indexed slots so assembly order — and therefore
	// the output bytes — is deterministic at any parallelism.
	digests := img.contentDigests
	type slot struct {
		comp []byte
		sum  [sha256.Size]byte
		err  error
	}
	slots := make([]slot, nCoreBlocks+len(shards))
	jobs := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(slots) {
		workers = len(slots)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if i < nCoreBlocks {
					lo := i * marshalCoreBlockBytes
					hi := lo + marshalCoreBlockBytes
					if hi > len(coreRaw) {
						hi = len(coreRaw)
					}
					if digests {
						slots[i].sum = sha256.Sum256(coreRaw[lo:hi])
					}
					slots[i].comp, slots[i].err = deflate(coreRaw[lo:hi])
					continue
				}
				shard := shards[i-nCoreBlocks]
				e, err := shardCodec.encode(&shard)
				if err != nil {
					slots[i].err = err
					continue
				}
				if digests {
					slots[i].sum = sha256.Sum256(e.buf.Bytes())
				}
				slots[i].comp, slots[i].err = deflate(e.buf.Bytes())
				shardCodec.encs.put(e)
			}
		}()
	}
	for i := range slots {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := make([]byte, 0, 4+16+len(img.LogAnchor))
	magic := marshalMagic
	if digests {
		magic = marshalMagicV3
	}
	if len(img.LogAnchor) > 0 {
		magic = marshalMagicV4
	}
	out = append(out, magic...)
	if len(img.LogAnchor) > 0 {
		var flags uint64
		if digests {
			flags |= 1
		}
		out = binary.AppendUvarint(out, flags)
		out = binary.AppendUvarint(out, uint64(len(img.LogAnchor)))
		out = append(out, img.LogAnchor...)
	}
	out = binary.AppendUvarint(out, uint64(nCoreBlocks))
	out = binary.AppendUvarint(out, uint64(len(shards)))
	for i := range slots {
		if slots[i].err != nil {
			return nil, fmt.Errorf("cria: compressing image block %d: %w", i, slots[i].err)
		}
		out = binary.AppendUvarint(out, uint64(len(slots[i].comp)))
		out = binary.LittleEndian.AppendUint32(out, blockChecksum(slots[i].comp))
		if digests {
			out = append(out, slots[i].sum[:]...)
		}
		out = append(out, slots[i].comp...)
	}
	return out, nil
}

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// most CPUs) used for per-block container checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockChecksum is the integrity checksum of one compressed container
// block, computed over the compressed bytes (so corruption is caught
// before any DEFLATE state machine runs).
func blockChecksum(comp []byte) uint32 {
	return crc32.Checksum(comp, crcTable)
}

// ErrChecksum reports a container block whose CRC32 does not match its
// bytes — the image was corrupted in transit. The migration retry path
// matches on it to re-request the damaged chunk.
var ErrChecksum = errors.New("cria: image block checksum mismatch")

// ErrDigest reports an FXC3 container block whose decompressed bytes do
// not hash to the SHA-256 digest the container carries — the content
// identity lied. The delta-migration cache path matches on it to treat a
// poisoned cache entry as a chunk-corruption fault and re-fetch.
var ErrDigest = errors.New("cria: image block content digest mismatch")

// Unmarshal decodes an image produced by Marshal, verifying every
// container block's CRC32 before inflating (checksum mismatches return
// an error wrapping ErrChecksum) and, for FXC3 containers, the SHA-256
// content digest after inflating (mismatches wrap ErrDigest). The legacy
// formats — FXC2, FXC1 containers and the seed's single gob+flate
// stream — are still accepted.
func Unmarshal(data []byte) (*Image, error) {
	var withCRC, withDigest bool
	var anchor []byte
	rest := data
	switch {
	case len(data) >= len(marshalMagicV4) && string(data[:len(marshalMagicV4)]) == marshalMagicV4:
		withCRC = true
		rest = data[len(marshalMagicV4):]
		flags, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("cria: corrupt image header (anchor flags)")
		}
		rest = rest[n:]
		withDigest = flags&1 != 0
		alen, n := binary.Uvarint(rest)
		if n <= 0 || alen > uint64(len(rest)-n) {
			return nil, fmt.Errorf("cria: corrupt image header (anchor length)")
		}
		rest = rest[n:]
		anchor = append([]byte(nil), rest[:alen]...)
		rest = rest[alen:]
	case len(data) >= len(marshalMagicV3) && string(data[:len(marshalMagicV3)]) == marshalMagicV3:
		withCRC, withDigest = true, true
		rest = data[len(marshalMagicV3):]
	case len(data) >= len(marshalMagic) && string(data[:len(marshalMagic)]) == marshalMagic:
		withCRC = true
		rest = data[len(marshalMagic):]
	case len(data) >= len(marshalMagicV1) && string(data[:len(marshalMagicV1)]) == marshalMagicV1:
		withCRC = false
		rest = data[len(marshalMagicV1):]
	default:
		return unmarshalLegacy(data)
	}
	nCore, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("cria: corrupt image header (core block count)")
	}
	rest = rest[n:]
	nShards, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("cria: corrupt image header (shard count)")
	}
	rest = rest[n:]

	// Every block inflates into one scratch buffer: the core blocks one
	// after another, then each shard in turn.
	scratch, _ := scratchBufs.get()
	defer func() { scratchBufs.put(scratch[:0]) }()
	blockIdx := -1
	nextBlock := func(dst []byte) ([]byte, error) {
		blockIdx++
		ln, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("cria: corrupt image block length")
		}
		rest = rest[n:]
		var want uint32
		if withCRC {
			if len(rest) < 4 {
				return nil, fmt.Errorf("cria: truncated image block checksum")
			}
			want = binary.LittleEndian.Uint32(rest[:4])
			rest = rest[4:]
		}
		var wantSum [sha256.Size]byte
		if withDigest {
			if len(rest) < sha256.Size {
				return nil, fmt.Errorf("cria: truncated image block digest")
			}
			copy(wantSum[:], rest[:sha256.Size])
			rest = rest[sha256.Size:]
		}
		if ln > uint64(len(rest)) {
			return nil, fmt.Errorf("cria: corrupt image block length")
		}
		block := rest[:ln]
		rest = rest[ln:]
		if withCRC && blockChecksum(block) != want {
			return nil, fmt.Errorf("%w (block %d)", ErrChecksum, blockIdx)
		}
		raw, err := inflate(dst, block)
		if err != nil {
			return nil, err
		}
		if withDigest && sha256.Sum256(raw[len(dst):]) != wantSum {
			return nil, fmt.Errorf("%w (block %d)", ErrDigest, blockIdx)
		}
		return raw, nil
	}

	var err error
	for i := uint64(0); i < nCore; i++ {
		if scratch, err = nextBlock(scratch); err != nil {
			return nil, fmt.Errorf("cria: decompressing image core: %w", err)
		}
	}
	var core imageCore
	if err := coreCodec.decode(scratch, &core); err != nil {
		return nil, fmt.Errorf("cria: decoding image core: %w", err)
	}
	if uint64(core.SegmentShards) != nShards {
		return nil, fmt.Errorf("cria: image shard count mismatch (header %d, core %d)", nShards, core.SegmentShards)
	}
	img := &Image{
		Pkg:             core.Pkg,
		Spec:            core.Spec,
		HomeDevice:      core.HomeDevice,
		CheckpointTime:  core.CheckpointTime,
		VPID:            core.VPID,
		FDs:             core.FDs,
		Handles:         core.Handles,
		Ashmem:          core.Ashmem,
		Runtime:         runtimeFromWire(core.Runtime),
		RecordLog:       core.RecordLog,
		LogAnchor:       anchor,
		HomeVolumeSteps: core.HomeVolumeSteps,
	}
	for i := uint64(0); i < nShards; i++ {
		if scratch, err = nextBlock(scratch[:0]); err != nil {
			return nil, fmt.Errorf("cria: decompressing segment shard %d: %w", i, err)
		}
		var shard []kernel.MemSegment
		if err := shardCodec.decode(scratch, &shard); err != nil {
			return nil, fmt.Errorf("cria: decoding segment shard %d: %w", i, err)
		}
		img.Segments = append(img.Segments, shard...)
	}
	return img, nil
}

// unmarshalLegacy decodes the seed's single-stream gob+flate format.
func unmarshalLegacy(data []byte) (*Image, error) {
	r := flate.NewReader(bytes.NewReader(data))
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cria: decompressing image: %w", err)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	var img Image
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&img); err != nil {
		return nil, fmt.Errorf("cria: decoding image: %w", err)
	}
	return &img, nil
}

// WireBytes is the image's total transfer size: compressed metadata +
// compressed memory payload + record log. The metadata serialization is
// memoized (see Marshal), so repeated calls — Migrate computes WireBytes
// and later re-serializes the image for the guest — cost one encoding.
func (img *Image) WireBytes() (int64, error) {
	meta, err := img.Marshal()
	if err != nil {
		return 0, err
	}
	return int64(len(meta)) + img.CompressedPayloadBytes() + int64(len(img.RecordLog)), nil
}
