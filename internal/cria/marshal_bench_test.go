package cria_test

import (
	"fmt"
	"testing"

	"flux/internal/android"
	"flux/internal/cria"
	"flux/internal/kernel"
)

// benchImage builds a synthetic image big enough to exercise the parallel
// marshal path: a multi-shard segment table plus a record log, roughly the
// shape of a heavyweight game checkpoint.
func benchImage(segs int) *cria.Image {
	img := &cria.Image{
		Pkg:        "com.example.bench",
		Spec:       android.AppSpec{Package: "com.example.bench", HeapBytes: 96 << 20},
		HomeDevice: "bench-home",
		VPID:       1,
		Runtime: android.RuntimeState{
			SavedState: map[string]string{"level": "42", "score": "123456", "boss": "down"},
		},
		RecordLog:       make([]byte, 64<<10),
		HomeVolumeSteps: 15,
	}
	for i := 0; i < segs; i++ {
		img.Segments = append(img.Segments, kernel.MemSegment{
			Name:    fmt.Sprintf("/proc/self/maps/%06x", i),
			Size:    int64(64<<10 + i%4096),
			Entropy: float64(i%100) / 100,
		})
	}
	return img
}

// BenchmarkImageMarshal measures the full (non-memoized) serialization:
// gob encode + parallel DEFLATE of core blocks and segment shards. Run
// with -cpu 1,4 to see the worker-pool scaling; ReportAllocs tracks the
// reuse of flate writers and primed gob encoders.
func BenchmarkImageMarshal(b *testing.B) {
	img := benchImage(2048)                  // 8 shards of 256 segments
	if _, err := img.Marshal(); err != nil { // warm pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.Invalidate()
		if _, err := img.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageUnmarshal measures the receiving side: checksum
// verification, inflating every block into the scratch buffer, and gob
// decoding the core and each shard on primed decoders.
func BenchmarkImageUnmarshal(b *testing.B) {
	for _, segs := range []int{16, 2048} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			data, err := benchImage(segs).Marshal()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cria.Unmarshal(data); err != nil { // warm pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cria.Unmarshal(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Allocation budgets for one image serialization on warm codecs. A fresh
// gob stream per core and per shard cost 303 allocations to marshal
// benchImage(2048) and 741 to unmarshal benchImage(16); primed streams,
// pooled flate state and a reused inflate buffer leave about 41 and 69.
const (
	marshalAllocBudget   = 60
	unmarshalAllocBudget = 120
)

// TestImageCodecAllocBudget pins the codec's allocations per image, so
// gob's per-stream type work does not drift back into Marshal or
// Unmarshal.
func TestImageCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	big := benchImage(2048)
	if _, err := big.Marshal(); err != nil { // primes the codecs
		t.Fatal(err)
	}
	marshal := testing.AllocsPerRun(20, func() {
		big.Invalidate()
		if _, err := big.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
	data, err := benchImage(16).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cria.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	unmarshal := testing.AllocsPerRun(20, func() {
		if _, err := cria.Unmarshal(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Marshal(benchImage(2048)) %.0f allocs, Unmarshal(benchImage(16)) %.0f allocs", marshal, unmarshal)
	if marshal > marshalAllocBudget {
		t.Errorf("Marshal allocated %.0f objects, budget %d", marshal, marshalAllocBudget)
	}
	if unmarshal > unmarshalAllocBudget {
		t.Errorf("Unmarshal allocated %.0f objects, budget %d", unmarshal, unmarshalAllocBudget)
	}
}

// BenchmarkImageWireBytesMemoized measures the migration hot path:
// WireBytes on an already-serialized image must not re-run gob+flate.
func BenchmarkImageWireBytesMemoized(b *testing.B) {
	img := benchImage(2048)
	if _, err := img.WireBytes(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.WireBytes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageChunks measures chunk-partition cost at the pipeline's
// default chunk size (the metadata marshal is memoized, so this is the
// pure partitioning arithmetic).
func BenchmarkImageChunks(b *testing.B) {
	img := benchImage(2048)
	if _, err := img.Marshal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks, err := img.Chunks(256 << 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(chunks) == 0 {
			b.Fatal("no chunks")
		}
	}
}
