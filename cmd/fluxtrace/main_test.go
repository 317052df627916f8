package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"flux/internal/seglog"
)

// TestRunVerify: a log saved by run verifies; the same file after
// runTamper does not; a file that is not a seglog stream is refused as
// an unsupported format.
func TestRunVerify(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.flxg")
	if err := run("com.whatsapp", false, path); err != nil {
		t.Fatal(err)
	}
	if err := runVerify(path); err != nil {
		t.Fatalf("saved log failed verification: %v", err)
	}
	if err := runTamper(path); err != nil {
		t.Fatal(err)
	}
	if err := runVerify(path); err == nil {
		t.Error("tampered log verified")
	}

	legacy := filepath.Join(dir, "legacy.flxl")
	if err := os.WriteFile(legacy, []byte("FLXL\x01"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := runVerify(legacy); !errors.Is(err, seglog.ErrUnsupportedFormat) {
		t.Errorf("non-seglog file: err = %v, want ErrUnsupportedFormat", err)
	}
}
