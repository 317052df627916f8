package cria_test

// Robustness tests for cria.Unmarshal: arbitrary truncations and bit
// flips of FXC2, FXC3 and FXC4 containers must return an error or a
// valid image — never panic. The migration fault model
// deliberately feeds Unmarshal corrupted bytes (chunk corruption on a
// flaky link), so the decoder's failure mode is part of the recovery
// contract.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"flux/internal/android"
	"flux/internal/cria"
	"flux/internal/kernel"
	"flux/internal/seglog"
)

// fuzzImageBytes builds one valid FXC2 container for mutation.
func fuzzImageBytes(tb testing.TB) []byte {
	tb.Helper()
	data, err := fuzzImage().Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Clone(data)
}

func fuzzImage() *cria.Image {
	return &cria.Image{
		Pkg:  "com.example.fuzz",
		Spec: android.AppSpec{Package: "com.example.fuzz", Label: "Fuzz"},
		Segments: []kernel.MemSegment{
			{Name: "heap", Size: 200_000, Entropy: 0.5},
			{Name: "tex", Size: 77_000, Entropy: 0.3},
		},
		Runtime:   android.RuntimeState{SavedState: map[string]string{"a": "1", "b": "2"}},
		RecordLog: []byte("fuzz-record-log"),
	}
}

// FuzzUnmarshal: no input may panic the decoder. The fuzzer mutates
// from valid FXC2 and FXC4 (anchor plus digests) containers and a few
// refusal inputs.
func FuzzUnmarshal(f *testing.F) {
	f.Add(fuzzImageBytes(f))
	fxc4 := fuzzImage()
	fxc4.SetContentDigests(true)
	fxc4.SetLogAnchor([]byte("fuzz-anchor"))
	wire, err := fxc4.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(wire))
	f.Add([]byte{})
	f.Add([]byte("FXC2"))
	f.Add([]byte("FXC1"))
	f.Add([]byte("FXC2\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte{0xff, 0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := cria.Unmarshal(data)
		if err == nil && img == nil {
			t.Error("nil image with nil error")
		}
	})
}

// TestUnmarshalTruncationsNeverPanic: every prefix of each live
// container errors cleanly. A full container decodes; any strict prefix
// must fail — the formats are not self-delimiting early.
func TestUnmarshalTruncationsNeverPanic(t *testing.T) {
	fxc3 := fuzzImage()
	fxc3.SetContentDigests(true)
	fxc4 := fuzzImage()
	fxc4.SetLogAnchor([]byte("fuzz-anchor"))
	for name, img := range map[string]*cria.Image{
		"fxc2": fuzzImage(),
		"fxc3": fxc3,
		"fxc4": fxc4,
	} {
		data, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cria.Unmarshal(data); err != nil {
			t.Fatalf("%s: pristine input failed: %v", name, err)
		}
		// Exhaustive near the header, sampled across the body.
		step := 1
		if len(data) > 512 {
			step = len(data) / 256
		}
		for cut := 0; cut < len(data); cut += step {
			if _, err := cria.Unmarshal(data[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d decoded cleanly", name, cut, len(data))
			}
		}
	}
}

// TestUnmarshalBitFlipsErrorNeverPanic: random single-bit flips. For
// FXC2, any flip must produce an error (header framing or ErrChecksum);
// bit flips can never silently decode, because every payload byte is
// covered by a block CRC and every header byte by framing validation.
func TestUnmarshalBitFlipsErrorNeverPanic(t *testing.T) {
	data := fuzzImageBytes(t)
	rng := rand.New(rand.NewSource(1))
	var checksumHits int
	for i := 0; i < 400; i++ {
		mut := bytes.Clone(data)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << uint(rng.Intn(8))
		img, err := cria.Unmarshal(mut)
		if err == nil {
			t.Errorf("bit flip at %d decoded cleanly (img=%v)", pos, img != nil)
			continue
		}
		if errors.Is(err, cria.ErrChecksum) {
			checksumHits++
		}
	}
	if checksumHits == 0 {
		t.Error("no bit flip was caught by the CRC layer; payload coverage looks broken")
	}

	// Every flip inside the magic errors too. Unless it lands on another
	// live magic (FXC2 -> FXC3), the result names no format this build
	// decodes.
	for bit := 0; bit < 32; bit++ {
		mut := bytes.Clone(data)
		mut[bit/8] ^= 1 << uint(bit%8)
		_, err := cria.Unmarshal(mut)
		switch magic := string(mut[:4]); {
		case err == nil:
			t.Errorf("magic flipped to %q decoded cleanly", magic)
		case magic != "FXC2" && magic != "FXC3" && magic != "FXC4" && !errors.Is(err, seglog.ErrUnsupportedFormat):
			t.Errorf("magic flipped to %q: err = %v, want ErrUnsupportedFormat", magic, err)
		}
	}
}
