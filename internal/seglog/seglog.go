// Package seglog implements Flux's crash-safe, tamper-evident record
// log container (DESIGN.md §5j) — the durability layer under the
// Selective Record log, replacing the old whole-file blob of
// internal/record/persist.go.
//
// A seglog is ONE append-only stream (a file, or a byte slice in
// flight) of CRC-framed records, organised into seal-delimited
// *segments*:
//
//   - Every frame is independently integrity-framed: a big-endian
//     length, a kind byte, the body, and a CRC32-Castagnoli over
//     kind+body. A torn tail (power cut mid-write) is detected on open
//     by the frame that fails to parse; Recover truncates back to the
//     last complete frame, so a crash can only ever lose the suffix
//     that was mid-write, never corrupt what came before.
//   - Every entry extends a hash chain: leaf_i = SHA-256(payload_i ‖
//     leaf_{i-1}), with leaf_{-1} = 0³². The chain head commits to the
//     exact content AND order of everything appended so far.
//   - A seal frame closes the current segment: it records the Merkle
//     root over the segment's leaf hashes. Sealed segments are
//     immutable; inclusion proofs (Prove/VerifyInclusion) authenticate
//     any single entry against its segment root in O(log n).
//   - An anchor frame snapshots the sealed state — total leaves, chain
//     head, and every segment root. Anchors are tiny (≈40 bytes + 36
//     per segment) and are what travels out-of-band: the CRIA image
//     embeds the latest anchor so the guest device can verify that the
//     log it is about to replay is byte-for-byte what the home device
//     recorded (VerifyPayloads), before replay begins.
//   - Pruning (the @drop compaction path) replaces an entry frame with
//     a pruned frame carrying just the entry's 32-byte leaf hash. The
//     chain and every Merkle root recompute identically, so existing
//     anchors and inclusion proofs stay valid across compaction.
//
// Load is strict — any CRC, chain, seal, or anchor inconsistency is an
// error (tampering or corruption must never be read through). Recover
// is the crash-open path — framing damage in the tail truncates,
// semantic damage (a CRC-valid frame whose root lies) still errors,
// because a crash cannot forge a valid checksum.
package seglog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

const (
	// Magic tags a seglog stream. Any other magic is refused with
	// ErrUnsupportedFormat.
	Magic = "FLXG"
	// Version is the stream format version.
	Version = 1
	// HashSize is the size of leaf hashes, roots, and the chain head.
	HashSize = sha256.Size
	// DefaultSegmentLeaves is the seal threshold: Append auto-seals the
	// open segment when it reaches this many leaves.
	DefaultSegmentLeaves = 128
	// maxFrameBytes bounds a single frame's declared body length; a
	// declared length beyond it is rejected outright instead of driving
	// a huge allocation off attacker-controlled bytes.
	maxFrameBytes = 1 << 30
	// headerSize is magic + version byte.
	headerSize = len(Magic) + 1
)

// Frame kinds.
const (
	kindEntry  = 0x01 // body: opaque payload bytes
	kindPruned = 0x02 // body: the pruned entry's 32-byte leaf hash
	kindSeal   = 0x03 // body: u32 segment index | u32 leaf count | root
	kindAnchor = 0x04 // body: marshalled Anchor
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTampered reports content whose framing is intact but whose hashes
// disagree — a seal root, anchor, or chain that does not match the
// bytes it claims to cover. Crashes cannot produce this (they tear
// frames, which fail CRC); tampering or bit rot can.
var ErrTampered = errors.New("seglog: content does not match its hashes")

// ErrUnsupportedFormat reports input whose magic or version names no
// format this build decodes, such as the retired FLXL record log or a
// CRIA image other than FXC2–FXC4. Nothing that writes those formats
// remains, so they are refused rather than read without tamper evidence.
var ErrUnsupportedFormat = errors.New("unsupported format")

// ErrTruncated reports a stream that ends mid-frame (or mid-header).
// Load refuses it; Recover heals it by dropping the torn tail.
var ErrTruncated = errors.New("seglog: truncated stream")

// Seal describes one sealed segment.
type Seal struct {
	// Index is the segment's ordinal (0-based).
	Index int
	// Start is the absolute index of the segment's first leaf.
	Start int
	// Count is the number of leaves the segment covers.
	Count int
	// Root is the Merkle root over the segment's leaf hashes.
	Root [HashSize]byte
}

// Log is an in-memory seglog: the decoded form of a stream, and the
// builder that produces one. Safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	segLeaves int
	leaves    [][HashSize]byte
	payloads  [][]byte // nil where pruned
	chain     [HashSize]byte
	seals     []Seal
	pruned    int
}

// New returns an empty log sealing every segLeaves appends;
// segLeaves <= 0 means DefaultSegmentLeaves.
func New(segLeaves int) *Log {
	if segLeaves <= 0 {
		segLeaves = DefaultSegmentLeaves
	}
	return &Log{segLeaves: segLeaves}
}

// leafHash computes leaf_i = SHA-256(payload ‖ prev).
func leafHash(payload []byte, prev [HashSize]byte) [HashSize]byte {
	h := sha256.New()
	h.Write(payload)
	h.Write(prev[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// Append adds one payload, extending the hash chain, and returns its
// leaf index. The open segment auto-seals when it reaches the log's
// segment size.
func (l *Log) Append(payload []byte) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(payload)
}

func (l *Log) appendLocked(payload []byte) int {
	leaf := leafHash(payload, l.chain)
	l.chain = leaf
	l.leaves = append(l.leaves, leaf)
	l.payloads = append(l.payloads, append([]byte(nil), payload...))
	idx := len(l.leaves) - 1
	if len(l.leaves)-l.sealedLeavesLocked() >= l.segLeaves {
		l.sealLocked()
	}
	return idx
}

// appendPrunedLocked extends the log with a leaf-only tombstone (used
// when decoding a compacted stream).
func (l *Log) appendPrunedLocked(leaf [HashSize]byte) {
	l.chain = leaf
	l.leaves = append(l.leaves, leaf)
	l.payloads = append(l.payloads, nil)
	l.pruned++
	if len(l.leaves)-l.sealedLeavesLocked() >= l.segLeaves {
		l.sealLocked()
	}
}

// Prune drops payload bytes for leaf i, leaving its leaf hash in place
// so the chain, every root, and every proof still verify. Reports
// whether the leaf existed and was live.
func (l *Log) Prune(i int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.payloads) || l.payloads[i] == nil {
		return false
	}
	l.payloads[i] = nil
	l.pruned++
	return true
}

// sealLocked closes the open segment, if non-empty.
func (l *Log) sealLocked() {
	start := l.sealedLeavesLocked()
	count := len(l.leaves) - start
	if count == 0 {
		return
	}
	l.seals = append(l.seals, Seal{
		Index: len(l.seals),
		Start: start,
		Count: count,
		Root:  merkleRoot(l.leaves[start:]),
	})
}

// SealTail closes the open segment (no-op when every leaf is sealed).
func (l *Log) SealTail() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealLocked()
}

func (l *Log) sealedLeavesLocked() int {
	if len(l.seals) == 0 {
		return 0
	}
	last := l.seals[len(l.seals)-1]
	return last.Start + last.Count
}

// Len reports the total leaf count (live + pruned).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.leaves)
}

// Pruned reports how many leaves have lost their payloads.
func (l *Log) Pruned() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pruned
}

// Head returns the chain head (the last leaf hash; zero when empty).
func (l *Log) Head() [HashSize]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chain
}

// Seals returns a copy of the sealed-segment records.
func (l *Log) Seals() []Seal {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Seal(nil), l.seals...)
}

// Payloads returns the payload slices in leaf order; pruned leaves are
// nil. The inner slices are the log's own copies — treat as read-only.
func (l *Log) Payloads() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]byte(nil), l.payloads...)
}

// Payload returns leaf i's payload bytes; ok is false when i is out of
// range or pruned.
func (l *Log) Payload(i int) (payload []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.payloads) || l.payloads[i] == nil {
		return nil, false
	}
	return l.payloads[i], true
}

// Leaf returns leaf i's chain hash.
func (l *Log) Leaf(i int) ([HashSize]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.leaves) {
		return [HashSize]byte{}, false
	}
	return l.leaves[i], true
}

// Anchor snapshots the sealed state: total sealed leaves, the chain
// head at the sealed boundary, and every segment root. Unsealed tail
// leaves are not covered — call SealTail first to anchor everything.
func (l *Log) Anchor() Anchor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.anchorLocked()
}

func (l *Log) anchorLocked() Anchor {
	a := Anchor{Version: Version}
	sealed := l.sealedLeavesLocked()
	a.Leaves = uint64(sealed)
	if sealed > 0 {
		a.Head = l.leaves[sealed-1]
	}
	a.Roots = make([]SegmentRoot, len(l.seals))
	for i, s := range l.seals {
		a.Roots[i] = SegmentRoot{Leaves: uint32(s.Count), Root: s.Root}
	}
	return a
}

// Marshal serializes the whole log as one stream: header, entry/pruned
// frames with seal frames at their boundaries, and a trailing anchor
// frame covering the sealed prefix.
func (l *Log) Marshal() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, 0, 64+len(l.leaves)*64)
	buf = appendHeader(buf)
	nextSeal := 0
	for i := range l.leaves {
		if l.payloads[i] == nil {
			buf = appendFrame(buf, kindPruned, l.leaves[i][:])
		} else {
			buf = appendFrame(buf, kindEntry, l.payloads[i])
		}
		if nextSeal < len(l.seals) {
			s := l.seals[nextSeal]
			if s.Start+s.Count == i+1 {
				buf = appendFrame(buf, kindSeal, sealBody(s))
				nextSeal++
			}
		}
	}
	buf = appendFrame(buf, kindAnchor, l.anchorLocked().Marshal())
	return buf
}

// appendHeader writes the stream header.
func appendHeader(buf []byte) []byte {
	buf = append(buf, Magic...)
	return append(buf, Version)
}

// appendFrame writes one frame: u32 len(kind+body) | kind | body | crc.
func appendFrame(buf []byte, kind byte, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(body)))
	start := len(buf)
	buf = append(buf, kind)
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

func sealBody(s Seal) []byte {
	body := make([]byte, 0, 8+HashSize)
	body = binary.BigEndian.AppendUint32(body, uint32(s.Index))
	body = binary.BigEndian.AppendUint32(body, uint32(s.Count))
	return append(body, s.Root[:]...)
}

// Recovery describes what a tolerant open found.
type Recovery struct {
	// RetainedBytes is the length of the valid prefix; bytes past it
	// were dropped (torn tail).
	RetainedBytes int
	// DroppedBytes counts the bytes discarded from the tail.
	DroppedBytes int
	// Truncated reports whether anything was dropped.
	Truncated bool
	// Leaves is the recovered leaf count.
	Leaves int
	// AnchoredLeaves is the leaf count covered by the last complete
	// anchor frame in the retained prefix (0 when none).
	AnchoredLeaves int
}

// Load strictly decodes a stream: every frame must parse, every CRC,
// seal root, and anchor must verify, and no bytes may trail the last
// frame. segLeaves <= 0 means DefaultSegmentLeaves (it governs future
// appends only; sealed boundaries come from the stream itself).
func Load(data []byte, segLeaves int) (*Log, error) {
	log, rec, err := parse(data, segLeaves, true)
	if err != nil {
		return nil, err
	}
	_ = rec
	return log, nil
}

// Recover tolerantly decodes a stream that may have a torn tail: the
// longest prefix of complete, CRC-valid frames is kept and the rest is
// reported dropped. Semantic mismatches (a seal or anchor that fails
// verification) still error — a crash tears frames, it does not forge
// checksums.
func Recover(data []byte, segLeaves int) (*Log, Recovery, error) {
	return parseRecover(data, segLeaves)
}

func parseRecover(data []byte, segLeaves int) (*Log, Recovery, error) {
	log, rec, err := parse(data, segLeaves, false)
	if err != nil {
		return nil, rec, err
	}
	return log, rec, nil
}

// parse is the shared decoder. In strict mode any defect errors; in
// tolerant mode framing defects truncate (recorded in Recovery) while
// semantic defects still error.
func parse(data []byte, segLeaves int, strict bool) (*Log, Recovery, error) {
	var rec Recovery
	if len(data) < headerSize {
		if strict || len(data) > 0 && string(data[:min(len(data), len(Magic))]) != Magic[:min(len(data), len(Magic))] {
			return nil, rec, fmt.Errorf("%w: %d-byte stream is shorter than the header", ErrTruncated, len(data))
		}
		// A tolerant open of a file torn inside the header: nothing
		// recoverable, but nothing tampered either.
		return nil, rec, fmt.Errorf("%w: header incomplete", ErrTruncated)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, rec, fmt.Errorf("seglog: bad magic %q: %w", data[:len(Magic)], ErrUnsupportedFormat)
	}
	if data[len(Magic)] != Version {
		return nil, rec, fmt.Errorf("seglog: unsupported version %d: %w", data[len(Magic)], ErrUnsupportedFormat)
	}
	l := New(segLeaves)
	// Decoding replays the stream through the same state machine that
	// built it, but seals come from seal frames, not the auto-seal rule:
	// neutralize auto-sealing by parking the threshold above any stream.
	autoSeg := l.segLeaves
	l.segLeaves = int(^uint(0) >> 1)
	off := headerSize
	lastGood := off
	for off < len(data) {
		kind, body, consumed, err := readFrame(data[off:])
		if err != nil {
			if strict {
				return nil, rec, fmt.Errorf("%w (offset %d)", err, off)
			}
			break // torn tail: keep the prefix
		}
		if err := l.applyFrame(kind, body, &rec); err != nil {
			return nil, rec, fmt.Errorf("%w (offset %d)", err, off)
		}
		off += consumed
		lastGood = off
	}
	l.segLeaves = autoSeg
	rec.RetainedBytes = lastGood
	rec.DroppedBytes = len(data) - lastGood
	rec.Truncated = rec.DroppedBytes > 0
	rec.Leaves = len(l.leaves)
	if rec.Truncated && strict {
		return nil, rec, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, rec.DroppedBytes)
	}
	return l, rec, nil
}

// applyFrame folds one decoded frame into the log, verifying seals and
// anchors against the replayed state.
func (l *Log) applyFrame(kind byte, body []byte, rec *Recovery) error {
	switch kind {
	case kindEntry:
		l.appendLocked(body)
	case kindPruned:
		if len(body) != HashSize {
			return fmt.Errorf("seglog: pruned frame carries %d bytes, want %d", len(body), HashSize)
		}
		var leaf [HashSize]byte
		copy(leaf[:], body)
		l.appendPrunedLocked(leaf)
	case kindSeal:
		if len(body) != 8+HashSize {
			return fmt.Errorf("seglog: seal frame carries %d bytes, want %d", len(body), 8+HashSize)
		}
		idx := binary.BigEndian.Uint32(body)
		count := binary.BigEndian.Uint32(body[4:])
		if int(idx) != len(l.seals) {
			return fmt.Errorf("%w: seal index %d, expected %d", ErrTampered, idx, len(l.seals))
		}
		start := l.sealedLeavesLocked()
		if count == 0 || int(count) != len(l.leaves)-start {
			return fmt.Errorf("%w: seal covers %d leaves, stream has %d unsealed", ErrTampered, count, len(l.leaves)-start)
		}
		var root [HashSize]byte
		copy(root[:], body[8:])
		if got := merkleRoot(l.leaves[start:]); got != root {
			return fmt.Errorf("%w: segment %d root mismatch", ErrTampered, idx)
		}
		l.seals = append(l.seals, Seal{Index: int(idx), Start: start, Count: int(count), Root: root})
	case kindAnchor:
		a, err := ParseAnchor(body)
		if err != nil {
			return err
		}
		if err := a.matches(l); err != nil {
			return err
		}
		rec.AnchoredLeaves = int(a.Leaves)
	default:
		return fmt.Errorf("seglog: unknown frame kind 0x%02x", kind)
	}
	return nil
}

// readFrame decodes one frame from the head of data, returning the kind
// byte, the body, and the bytes consumed.
func readFrame(data []byte) (kind byte, body []byte, consumed int, err error) {
	if len(data) < 4 {
		return 0, nil, 0, fmt.Errorf("%w: partial frame length", ErrTruncated)
	}
	fl := binary.BigEndian.Uint32(data)
	if fl == 0 {
		return 0, nil, 0, errors.New("seglog: zero-length frame")
	}
	// Compare in uint64 space: a declared length near 2³² must not wrap
	// an int32/uint32 comparison into acceptance, and an absurd length
	// is rejected before any allocation.
	if uint64(fl) > maxFrameBytes {
		return 0, nil, 0, fmt.Errorf("seglog: frame declares %d bytes (max %d)", fl, maxFrameBytes)
	}
	total := uint64(4) + uint64(fl) + 4
	if total > uint64(len(data)) {
		return 0, nil, 0, fmt.Errorf("%w: frame needs %d bytes, %d remain", ErrTruncated, total, len(data))
	}
	payload := data[4 : 4+fl]
	want := binary.BigEndian.Uint32(data[4+fl:])
	if crc32.Checksum(payload, crcTable) != want {
		return 0, nil, 0, fmt.Errorf("%w: frame CRC mismatch", ErrTruncated)
	}
	return payload[0], payload[1:], int(total), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
