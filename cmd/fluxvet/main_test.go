package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/cria"
	"flux/internal/record"
	"flux/internal/services"
	"flux/internal/vet"
)

// TestValidateFlags pins the flag-hygiene contract: every bad
// combination fails fast with a message naming the offending flag, and
// the good ones resolve to the right layer/check selection.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     map[string]bool
		layers  string
		logs    string
		format  string
		only    string
		skip    string
		wantErr string // substring of the error, "" = must succeed
	}{
		{name: "defaults", layers: "spec,src", format: "text"},
		{name: "unknown layer", layers: "spec,web", format: "text", wantErr: `unknown layer "web"`},
		{name: "logs layer without path", layers: "logs", format: "text", wantErr: "needs -logs"},
		{name: "logs path implies layer", layers: "spec", logs: "run.flxg", format: "text"},
		{name: "image without logs", set: map[string]bool{"image": true}, layers: "spec,src", format: "text", wantErr: "-image only applies with -logs"},
		{name: "fullrecord without logs", set: map[string]bool{"fullrecord": true}, layers: "src", format: "text", wantErr: "-fullrecord only applies with -logs"},
		{name: "bad format", layers: "src", format: "yaml", wantErr: `unknown -format "yaml"`},
		{name: "json format", layers: "src", format: "json"},
		{name: "sarif format", layers: "src", format: "sarif"},
		{name: "only and skip conflict", set: map[string]bool{"only": true, "skip": true}, layers: "src", format: "text",
			only: "maprange", skip: "wallclock", wantErr: "mutually exclusive"},
		{name: "only without src layer", set: map[string]bool{"only": true}, layers: "spec", format: "text",
			only: "maprange", wantErr: "-only only applies with the src layer"},
		{name: "timings without src layer", set: map[string]bool{"timings": true}, layers: "spec", format: "text",
			wantErr: "-timings only applies with the src layer"},
		{name: "unknown check in only", set: map[string]bool{"only": true}, layers: "src", format: "text",
			only: "wallclocks", wantErr: `unknown check "wallclocks"`},
		{name: "unknown check in skip", set: map[string]bool{"skip": true}, layers: "src", format: "text",
			skip: "nosuch", wantErr: `unknown check "nosuch"`},
		{name: "valid selection", set: map[string]bool{"only": true}, layers: "src", format: "text",
			only: "lock-order, durability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := tc.set
			if set == nil {
				set = map[string]bool{}
			}
			opts, err := validateFlags(set, tc.layers, tc.logs, tc.format, tc.only, tc.skip)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v (opts %+v)", tc.wantErr, err, opts)
			}
		})
	}
}

// TestValidateFlagsSelection: comma lists are trimmed and resolved.
func TestValidateFlagsSelection(t *testing.T) {
	opts, err := validateFlags(map[string]bool{"only": true}, "src", "", "text", " lock-order ,durability ", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.only) != 2 || opts.only[0] != "lock-order" || opts.only[1] != "durability" {
		t.Fatalf("only = %v", opts.only)
	}
	if !opts.layers["src"] || opts.layers["spec"] {
		t.Fatalf("layers = %v", opts.layers)
	}
}

// TestRunSpecShippedClean is the CLI-level acceptance gate: the spec layer
// over the shipped catalog, with the shipped waivers and the live proxy
// registry, reports nothing.
func TestRunSpecShippedClean(t *testing.T) {
	if fs := runSpec(); len(fs) != 0 {
		t.Fatalf("shipped specs not clean: %v", fs)
	}
}

// TestRunLogsEndToEnd exercises the persisted-log path end to end:
// SaveFile → LoadFile → LintLog against the shipped specs, with and
// without a CRIA image gating the handle checks.
func TestRunLogsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	itf := services.NotificationInterface
	m := itf.Method("enqueueNotification")
	if m == nil {
		t.Fatal("no enqueueNotification in the shipped spec")
	}
	p, err := aidl.MarshalCallArgs(m, int32(1), aidl.Object("notif"))
	if err != nil {
		t.Fatal(err)
	}
	log := record.NewLog()
	log.Append(&record.Entry{
		Seq: 1, App: "com.app", Interface: itf.Name, Method: m.Name,
		Code: m.Code, Handle: 7, Data: p.Marshal(),
	})
	logPath := filepath.Join(dir, "run.flxg")
	if err := log.SaveFile(logPath); err != nil {
		t.Fatal(err)
	}

	// Without an image the log is clean.
	fs, err := runLogs(logPath, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("clean log produced findings: %v", fs)
	}

	// An image that does not restore handle 7 turns the same entry into
	// a replay hazard.
	img := &cria.Image{
		Pkg: "com.app",
		Handles: []cria.HandleRecord{
			{Handle: 3, Kind: cria.HandleSystemService, ServiceName: "alarm", Descriptor: "IAlarmManager"},
		},
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	imgPath := filepath.Join(dir, "app.cria")
	if err := os.WriteFile(imgPath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	fs, err = runLogs(logPath, imgPath, false)
	if err != nil {
		t.Fatal(err)
	}
	var hazards []vet.Finding
	for _, f := range fs {
		if f.Check == "replay-hazard" {
			hazards = append(hazards, f)
		}
	}
	if len(hazards) != 1 {
		t.Fatalf("want one replay-hazard for handle 7, got %v", fs)
	}

	// Restoring the handle clears it. (Marshal memoizes the wire bytes,
	// so build a fresh image rather than mutating the first one.)
	img2 := &cria.Image{
		Pkg: "com.app",
		Handles: append(img.Handles, cria.HandleRecord{
			Handle: binder.Handle(7), Kind: cria.HandleSystemService,
			ServiceName: "notification", Descriptor: itf.Name,
		}),
	}
	data, err = img2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(imgPath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	fs, err = runLogs(logPath, imgPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("restored handle should be clean: %v", fs)
	}
}
