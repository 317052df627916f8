// Command fluxvet is the Flux replay-safety static analyzer. It runs up to
// three layers of checks (DESIGN.md §5f):
//
//	spec  — decorator-spec analysis over the compiled AIDL interfaces the
//	        services package ships: dead @drop targets, drop cycles that
//	        are not pair annihilations, lossy @if guard types, oneway
//	        methods routed through reply-dependent @replayproxy proxies,
//	        and state-mutating methods that carry no @record. Intentional
//	        deviations are waived by vet.DefaultSpecWaivers, and a waiver
//	        that stops matching surfaces as a stale-waiver finding.
//	logs  — linting of a persisted Selective Record log (-logs) against
//	        the same specs: prune/spec drift, unknown methods, sequence
//	        disorder, and (with -image) Binder handles absent from the
//	        CRIA image's handle table.
//	src   — the pass driver over the Go source tree (-src): named
//	        interprocedural analyses (DESIGN.md §5k) run in parallel over
//	        a package graph loaded and type-checked once. The selectable
//	        checks are wallclock and determinism-taint (wall-clock and
//	        unseeded-rand nondeterminism, propagated through the call
//	        graph via per-package facts), maprange (map-iteration order
//	        leaks), lock-order (AB/BA mutex acquisition conflicts),
//	        durability (discarded Write/Sync/Close errors and tmp+rename
//	        outside atomicio), and wire-drift (magic/header/cap/faults.Site
//	        drift across the codec packages). //fluxvet:allow comments
//	        suppress intentional sites with a reason; stale or misspelled
//	        directives become findings themselves.
//
// Usage:
//
//	fluxvet                               # layers spec,src over the repo
//	fluxvet -layers spec                  # specs only (no source tree needed)
//	fluxvet -logs run.flxg                # + lint a persisted record log
//	fluxvet -logs run.flxg -image app.cria  # + replay-hazard handle checks
//	fluxvet -src /path/to/repo            # explicit repo root for src layer
//	fluxvet -only lock-order,durability   # restrict the src layer's checks
//	fluxvet -format sarif                 # SARIF 2.1.0 for code-scanning UIs
//	fluxvet -timings                      # per-pass wall time on stderr
//
// Exit status is 1 when any finding is reported, 2 on a bad invocation or
// operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flux/internal/binder"
	"flux/internal/cria"
	"flux/internal/replay"
	"flux/internal/services"
	"flux/internal/vet"
)

func main() {
	var (
		layersFlag = flag.String("layers", "spec,src", "comma-separated layers to run: spec, logs, src")
		logsPath   = flag.String("logs", "", "persisted record log (.flxg) to lint; implies the logs layer")
		imagePath  = flag.String("image", "", "CRIA image whose handle table gates replay-hazard checks (requires -logs)")
		srcRoot    = flag.String("src", ".", "repository root for the src layer")
		fullRecord = flag.Bool("fullrecord", false, "log was produced by the full-record ablation: skip unrecorded-entry checks")
		formatFlag = flag.String("format", "text", "output format: text, json, sarif")
		onlyFlag   = flag.String("only", "", "comma-separated src-layer checks to run exclusively")
		skipFlag   = flag.String("skip", "", "comma-separated src-layer checks to skip")
		timings    = flag.Bool("timings", false, "print per-pass wall time for the src layer to stderr")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	opts, err := validateFlags(explicit, *layersFlag, *logsPath, *formatFlag, *onlyFlag, *skipFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxvet:", err)
		flag.Usage()
		os.Exit(2)
	}

	var findings []vet.Finding
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fluxvet:", err)
		os.Exit(2)
	}

	if opts.layers["spec"] {
		findings = append(findings, runSpec()...)
	}
	if opts.layers["logs"] {
		fs, err := runLogs(*logsPath, *imagePath, *fullRecord)
		if err != nil {
			fail(err)
		}
		findings = append(findings, fs...)
	}
	if opts.layers["src"] {
		fs, passTimings, err := vet.RunSourceChecks(vet.DefaultSourceConfig(*srcRoot), opts.only, opts.skip)
		if err != nil {
			fail(err)
		}
		findings = append(findings, fs...)
		if *timings {
			for _, pt := range passTimings {
				fmt.Fprintf(os.Stderr, "fluxvet: pass %-12s %8.3fs  %d package(s), %d finding(s)\n",
					pt.Pass, pt.Wall.Seconds(), pt.Packages, pt.Findings)
			}
		}
	}

	vet.Sort(findings)
	switch opts.format {
	case "json":
		os.Stdout.Write(vet.RenderJSON(findings))
	case "sarif":
		os.Stdout.Write(vet.RenderSARIF(findings))
	default:
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fluxvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// cliOptions is the validated invocation: which layers run, the output
// format, and the src-layer check selection.
type cliOptions struct {
	layers map[string]bool
	format string
	only   []string
	skip   []string
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// validateFlags checks the flag combination (set is populated by
// flag.Visit) before anything runs, so a bad invocation fails fast with
// usage instead of half-running or silently no-oping.
func validateFlags(set map[string]bool, layersFlag, logsPath, format, only, skip string) (cliOptions, error) {
	opts := cliOptions{layers: map[string]bool{}, format: format}
	for _, l := range splitList(layersFlag) {
		switch l {
		case "spec", "logs", "src":
			opts.layers[l] = true
		default:
			return opts, fmt.Errorf("unknown layer %q (spec, logs, src)", l)
		}
	}
	if logsPath != "" {
		opts.layers["logs"] = true
	}
	if opts.layers["logs"] && logsPath == "" {
		return opts, fmt.Errorf("the logs layer needs -logs <file.flxg>")
	}
	if set["image"] && !opts.layers["logs"] {
		return opts, fmt.Errorf("-image only applies with -logs")
	}
	if set["fullrecord"] && !opts.layers["logs"] {
		return opts, fmt.Errorf("-fullrecord only applies with -logs")
	}

	switch format {
	case "text", "json", "sarif":
	default:
		return opts, fmt.Errorf("unknown -format %q (text, json, sarif)", format)
	}

	opts.only, opts.skip = splitList(only), splitList(skip)
	if len(opts.only) > 0 && len(opts.skip) > 0 {
		return opts, fmt.Errorf("-only and -skip are mutually exclusive")
	}
	for _, scoped := range []string{"only", "skip", "timings"} {
		if set[scoped] && !opts.layers["src"] {
			return opts, fmt.Errorf("-%s only applies with the src layer", scoped)
		}
	}
	known := map[string]bool{}
	for _, c := range vet.SourceCheckNames() {
		known[c] = true
	}
	for _, c := range append(append([]string(nil), opts.only...), opts.skip...) {
		if !known[c] {
			return opts, fmt.Errorf("unknown check %q (known: %s)", c, strings.Join(vet.SourceCheckNames(), ", "))
		}
	}
	return opts, nil
}

// runSpec analyzes the shipped decorator specs with the shipped waiver
// policy, resolving @replayproxy paths against the live replay engine's
// registry.
func runSpec() []vet.Finding {
	eng := replay.NewEngine()
	cfg := vet.SpecConfig{Proxies: func(path string) vet.ProxyInfo {
		registered, needsReply := eng.ProxyInfo(path)
		return vet.ProxyInfo{Registered: registered, NeedsReply: needsReply}
	}}
	var specs []vet.SpecSource
	for _, s := range services.AIDLSpecs() {
		specs = append(specs, vet.SpecSource{Service: s.Service, Itf: s.Itf})
	}
	return vet.Apply(vet.AnalyzeSpecs(specs, cfg), vet.DefaultSpecWaivers())
}

// runLogs lints a persisted record log, optionally against a CRIA image's
// handle table. Loading goes through vet.LintLogFile, so a log failing
// cryptographic verification surfaces as a log-integrity finding rather
// than a load error.
func runLogs(logsPath, imagePath string, fullRecord bool) ([]vet.Finding, error) {
	opts := vet.LogLintOptions{FullRecord: fullRecord}
	if imagePath != "" {
		data, err := os.ReadFile(imagePath)
		if err != nil {
			return nil, fmt.Errorf("loading CRIA image: %w", err)
		}
		img, err := cria.Unmarshal(data)
		if err != nil {
			return nil, fmt.Errorf("parsing CRIA image: %w", err)
		}
		opts.Handles = make(map[binder.Handle]bool, len(img.Handles))
		for _, h := range img.Handles {
			opts.Handles[h.Handle] = true
		}
	}
	fs, err := vet.LintLogFile(logsPath, services.InterfacesByDescriptor(), opts)
	if err != nil {
		return nil, fmt.Errorf("loading record log: %w", err)
	}
	return fs, nil
}
