package lab

import (
	"strings"
	"testing"
)

const smokeYAML = `
# comment line
name: smoke
scenario: matrix
seed: 7
repetitions: 2
sweep:
  workers: [1, 0]
  pipelined: [false, true]
criteria:
  max_stage_mape_pct: 4.5
`

func TestParseSpecYAML(t *testing.T) {
	s, err := ParseSpec([]byte(smokeYAML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "smoke" || s.Scenario != ScenarioMatrix || s.Seed != 7 || s.Repetitions != 2 {
		t.Errorf("scalar fields wrong: %+v", s)
	}
	if len(s.Sweep.Workers) != 2 || s.Sweep.Workers[0] != 1 || s.Sweep.Workers[1] != 0 {
		t.Errorf("workers axis wrong: %v", s.Sweep.Workers)
	}
	if len(s.Sweep.Pipelined) != 2 || s.Sweep.Pipelined[0] || !s.Sweep.Pipelined[1] {
		t.Errorf("pipelined axis wrong: %v", s.Sweep.Pipelined)
	}
	if s.Criteria.MaxStageMAPEPct != 4.5 {
		t.Errorf("criteria override lost: %+v", s.Criteria)
	}
	// Unset criteria fall back to defaults.
	if s.Criteria.MinPearsonR != DefaultCriteria().MinPearsonR {
		t.Errorf("default criterion not applied: %+v", s.Criteria)
	}
}

func TestSpecHashFormatIndependent(t *testing.T) {
	yaml, err := ParseSpec([]byte(smokeYAML))
	if err != nil {
		t.Fatal(err)
	}
	jsonSpec, err := ParseSpec([]byte(`{
		"name": "smoke", "scenario": "matrix", "seed": 7, "repetitions": 2,
		"sweep": {"workers": [1, 0], "pipelined": [false, true]},
		"criteria": {"max_stage_mape_pct": 4.5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if yaml.Hash() != jsonSpec.Hash() {
		t.Errorf("equivalent YAML and JSON specs hash differently:\n  %s\n  %s", yaml.Hash(), jsonSpec.Hash())
	}
	other := yaml
	other.Seed = 8
	if other.Hash() == yaml.Hash() {
		t.Error("different seeds hash identically")
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown key", "name: x\nscenario: matrix\nbogus: 1", "bogus"},
		{"unknown sweep axis", "name: x\nscenario: matrix\nsweep:\n  cadence: [1]", "cadence"},
		{"unknown criterion", "name: x\nscenario: matrix\ncriteria:\n  max_wat: 1", "max_wat"},
		{"unknown scenario", "name: x\nscenario: orbit", "unknown scenario"},
		{"missing scenario", "name: x", "scenario is required"},
		{"missing name", "scenario: matrix", "needs a name"},
		{"fault rates on matrix", "name: x\nscenario: matrix\nsweep:\n  fault_rates: [0.1]", "faults scenario only"},
		{"dirty on faults", "name: x\nscenario: faults\nsweep:\n  dirty_fracs: [0.1]", "commuter scenario only"},
		{"pipelined on faults", "name: x\nscenario: faults\nsweep:\n  pipelined: [true]", "not an axis"},
		{"workers on commuter", "name: x\nscenario: commuter\nsweep:\n  workers: [1, 2]", "not an axis"},
		{"fault rate range", "name: x\nscenario: faults\nsweep:\n  fault_rates: [1.5]", "out of [0,1]"},
		{"negative budget", "name: x\nscenario: commuter\nsweep:\n  cache_budgets: [-1]", "negative"},
		{"tab indentation", "name: x\nscenario: matrix\nsweep:\n\tworkers: [1]", "tabs"},
		{"deep nesting", "name: x\nscenario: matrix\nsweep:\n  inner:\n    workers: [1]", "deeper than one level"},
		{"unterminated list", "name: x\nscenario: matrix\nsweep:\n  workers: [1, 2", "unterminated"},
		{"non-numeric axis", "name: x\nscenario: matrix\nsweep:\n  workers: [one]", "not an integer"},
		{"bad schema", "name: x\nscenario: matrix\nschema: 99", "unsupported schema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.src))
			if err == nil {
				t.Fatalf("spec %q parsed without error", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestShippedSpecsParse(t *testing.T) {
	for _, path := range []string{
		"../../lab/specs/smoke.yaml",
		"../../lab/specs/matrix.yaml",
		"../../lab/specs/faults.yaml",
		"../../lab/specs/commuter.yaml",
	} {
		if _, err := LoadSpec(path); err != nil {
			t.Errorf("shipped spec %s: %v", path, err)
		}
	}
}

// TestParseSpecErrorStrings pins the exact YAML spec diagnostics: parse
// errors carry "lab: spec line N", decode errors "lab: spec key K".
func TestParseSpecErrorStrings(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"parse error", "name: x\nscenario: matrix\nsweep:\n  workers: [1, 2", `lab: spec line 4: unterminated list "[1, 2"`},
		{"bad int", "name: x\nscenario: matrix\nseed: seven", `lab: spec key seed: "seven" is not an integer`},
		{"bad float list", "name: x\nscenario: faults\nsweep:\n  fault_rates: [0.1, high]", `lab: spec key sweep.fault_rates: "high" is not a number`},
		{"unknown key", "name: x\nscenario: matrix\nbogus: 1", `lab: spec key "bogus" is not part of the spec schema`},
		{"unknown sweep key", "name: x\nscenario: matrix\nsweep:\n  cadence: [1]", `lab: spec key sweep.cadence is not a sweep axis`},
		{"unknown criteria key", "name: x\nscenario: matrix\ncriteria:\n  max_wat: 1", `lab: spec key criteria.max_wat is not a criterion`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.src))
			if err == nil || err.Error() != tc.want {
				t.Errorf("error = %v, want %q", err, tc.want)
			}
		})
	}
}
