// Command fluxtrace runs an evaluation app's workload and dumps its
// Selective Record call log — the pruned sequence of service calls a
// migration would replay on the guest device. With -full it also shows
// what an undecorated full-record baseline would have kept, making the
// selective pruning visible.
//
// It also speaks the on-disk seglog format (DESIGN.md §5j): -o saves
// the traced log, -i dumps a saved one, -verify checks every CRC,
// hash-chain link, segment Merkle root, and anchor, and -tamper flips a
// single bit so CI can assert that -verify then refuses the file.
//
// Usage:
//
//	fluxtrace -app com.king.candycrushsaga
//	fluxtrace -app com.whatsapp -full
//	fluxtrace -app com.whatsapp -o trace.flxg
//	fluxtrace -i trace.flxg
//	fluxtrace -verify trace.flxg
//	fluxtrace -tamper trace.flxg && fluxtrace -verify trace.flxg  # fails
package main

import (
	"flag"
	"fmt"
	"os"

	"flux"
	"flux/internal/apps"
	"flux/internal/device"
	"flux/internal/record"
	"flux/internal/seglog"
)

func main() {
	var (
		appPkg  = flag.String("app", "com.king.candycrushsaga", "evaluation app to trace")
		full    = flag.Bool("full", false, "also run the full-record baseline")
		outPath = flag.String("o", "", "save the traced log (all apps) to this path as a seglog stream")
		inPath  = flag.String("i", "", "load and print a saved log instead of tracing")
		verify  = flag.String("verify", "", "verify a saved log's hash chain, segment roots, and anchor; exit 1 on failure")
		tamper  = flag.String("tamper", "", "flip one payload bit in a saved log in place (for testing -verify)")
	)
	flag.Parse()
	var err error
	switch {
	case *verify != "":
		err = runVerify(*verify)
	case *tamper != "":
		err = runTamper(*tamper)
	case *inPath != "":
		err = runDump(*inPath)
	default:
		err = run(*appPkg, *full, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxtrace:", err)
		os.Exit(1)
	}
}

func run(appPkg string, full bool, outPath string) error {
	app := flux.AppByPackage(appPkg)
	if app == nil {
		return fmt.Errorf("app %s not in the evaluation catalog", appPkg)
	}
	entries, stats, log, err := trace(*app, false)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := log.SaveFile(outPath); err != nil {
			return err
		}
		fmt.Printf("saved %d-entry log to %s\n\n", log.Len(), outPath)
	}
	fmt.Printf("%s — workload: %s\n", app.Spec.Label, app.Workload)
	fmt.Printf("selective record: %d calls observed on decorated interfaces, %d recorded, %d survive pruning\n",
		stats.Observed, stats.Recorded, len(entries))
	fmt.Printf("                  %d suppressed by @drop(this) annihilation, %d recorded entries later pruned\n\n",
		stats.DroppedByRule, stats.Pruned)
	printLog(entries)
	if full {
		fullEntries, _, _, err := trace(*app, true)
		if err != nil {
			return err
		}
		fmt.Printf("\nfull-record baseline would keep %d entries (%.1fx the selective log)\n",
			len(fullEntries), float64(len(fullEntries))/float64(max(1, len(entries))))
	}
	return nil
}

func trace(app flux.App, full bool) ([]*record.Entry, record.Stats, *record.Log, error) {
	dev, err := device.New(device.Nexus4("trace"))
	if err != nil {
		return nil, record.Stats{}, nil, err
	}
	if full {
		for _, reg := range dev.System.Catalog() {
			dev.Recorder.SetFullRecord(reg.Descriptor, true)
		}
	}
	if _, err := apps.Launch(dev, app); err != nil {
		return nil, record.Stats{}, nil, err
	}
	log := dev.Recorder.Log()
	return log.AppEntries(app.Spec.Package), dev.Recorder.Stats(), log, nil
}

// runDump loads a saved log strictly and prints every app's entries.
func runDump(path string) error {
	log, err := record.LoadFile(path)
	if err != nil {
		return err
	}
	for _, app := range log.Apps() {
		fmt.Printf("%s (%d entries)\n", app, len(log.AppEntries(app)))
		printLog(log.AppEntries(app))
		fmt.Println()
	}
	return nil
}

// runVerify checks a saved seglog file end to end: every frame CRC,
// every hash-chain link, every sealed segment's Merkle root, the
// trailing anchor, and one inclusion proof per sealed segment. A file
// that is not a seglog stream fails with seglog.ErrUnsupportedFormat.
func runVerify(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sl, err := seglog.Load(data, seglog.DefaultSegmentLeaves)
	if err != nil {
		return fmt.Errorf("%s: verification failed: %w", path, err)
	}
	fmt.Printf("%s: %d bytes, %d entries (%d pruned), %d sealed segments\n",
		path, len(data), sl.Len(), sl.Pruned(), len(sl.Seals()))
	proofs := 0
	for _, s := range sl.Seals() {
		fmt.Printf("  segment %3d: leaves [%d,%d)  root %x\n", s.Index, s.Start, s.Start+s.Count, s.Root)
		// Spot-check one inclusion proof per segment: the O(log n) path a
		// guest walks instead of re-hashing the whole segment.
		mid := s.Start + s.Count/2
		p, err := sl.Prove(mid)
		if err != nil {
			return fmt.Errorf("%s: proving leaf %d: %w", path, mid, err)
		}
		if !seglog.VerifyInclusion(p, s.Root) {
			return fmt.Errorf("%s: inclusion proof for leaf %d does not verify", path, mid)
		}
		proofs++
	}
	a := sl.Anchor()
	fmt.Printf("  chain head %x\n", sl.Head())
	fmt.Printf("  anchor: %d leaves, %d segment roots, %d wire bytes\n", a.Leaves, len(a.Roots), len(a.Marshal()))
	fmt.Printf("ok: every CRC, chain link, and segment root recomputed; %d inclusion proofs spot-checked\n", proofs)
	return nil
}

// runTamper flips a single bit in the middle of a saved log, in place.
// It exists so CI (and skeptical humans) can watch -verify refuse the
// result: the smoke test records a log, verifies it, tampers, and
// asserts detection.
func runTamper(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) <= len(seglog.Magic)+1 {
		return fmt.Errorf("%s: too short to tamper", path)
	}
	// Aim past the header, at the middle of the stream body — payload
	// bytes, not framing, so detection exercises the hash chain rather
	// than a length check.
	off := (len(seglog.Magic) + 1 + len(data)) / 2
	data[off] ^= 0x01
	if err := os.WriteFile(path, data, 0o600); err != nil {
		return err
	}
	fmt.Printf("flipped bit 0 of byte %d in %s\n", off, path)
	return nil
}

func printLog(entries []*record.Entry) {
	fmt.Printf("%4s  %-18s %-28s %-8s %s\n", "SEQ", "SERVICE", "METHOD", "HANDLE", "ARGS")
	for _, e := range entries {
		args := "<unparseable>"
		if p, err := e.Parcel(); err == nil {
			args = p.String()
		}
		fmt.Printf("%4d  %-18s %-28s h#%-6d %s\n", e.Seq, e.Service, e.Method, e.Handle, args)
	}
}
