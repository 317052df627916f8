package lab

// Spec parsing rides on internal/yamlite, the shared YAML-subset parser
// (extracted from this package once fluxfleet grew a second declarative
// spec surface). Its labels keep the error vocabulary this package has
// always used — "lab: spec line %d: ..." for parse errors, "lab: spec
// key %s: ..." for decode errors (pinned by TestParseSpecErrorStrings).

import (
	"fmt"

	"flux/internal/yamlite"
)

// decodeSpec maps a parsed document onto Spec, rejecting unknown keys so
// typos surface instead of silently no-oping.
func decodeSpec(doc yamlite.Map, s *Spec) error {
	for _, key := range yamlite.SortedKeys(doc) {
		v := doc[key]
		label := "lab: spec key " + key
		var err error
		switch key {
		case "schema":
			s.Schema, err = yamlite.Int(v, label)
		case "name":
			s.Name, err = yamlite.String(v, label)
		case "scenario":
			s.Scenario, err = yamlite.String(v, label)
		case "seed":
			var n int
			n, err = yamlite.Int(v, label)
			s.Seed = int64(n)
		case "repetitions":
			s.Repetitions, err = yamlite.Int(v, label)
		case "counterfactual_k":
			s.CounterfactualK, err = yamlite.Int(v, label)
		case "sweep":
			if !v.IsMap {
				return fmt.Errorf("%s: expected a nested block", label)
			}
			err = decodeSweep(v.Child, &s.Sweep)
		case "criteria":
			if !v.IsMap {
				return fmt.Errorf("%s: expected a nested block", label)
			}
			err = decodeCriteria(v.Child, &s.Criteria)
		default:
			return fmt.Errorf("lab: spec key %q is not part of the spec schema", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func decodeSweep(doc yamlite.Map, sw *Sweep) error {
	for _, key := range yamlite.SortedKeys(doc) {
		v := doc[key]
		label := "lab: spec key sweep." + key
		var err error
		switch key {
		case "workers":
			sw.Workers, err = yamlite.IntList(v, label)
		case "pipelined":
			sw.Pipelined, err = yamlite.BoolList(v, label)
		case "fault_rates":
			sw.FaultRates, err = yamlite.FloatList(v, label)
		case "dirty_fracs":
			sw.DirtyFracs, err = yamlite.FloatList(v, label)
		case "cache_budgets":
			var ints []int
			ints, err = yamlite.IntList(v, label)
			for _, n := range ints {
				sw.CacheBudgets = append(sw.CacheBudgets, int64(n))
			}
		case "round_trips":
			sw.RoundTrips, err = yamlite.Int(v, label)
		case "fleet_devices":
			sw.FleetDevices, err = yamlite.IntList(v, label)
		case "fleet_migrations":
			sw.FleetMigrations, err = yamlite.Int(v, label)
		default:
			return fmt.Errorf("%s is not a sweep axis", label)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func decodeCriteria(doc yamlite.Map, c *Criteria) error {
	for _, key := range yamlite.SortedKeys(doc) {
		v := doc[key]
		label := "lab: spec key criteria." + key
		var err error
		switch key {
		case "max_stage_mape_pct":
			c.MaxStageMAPEPct, err = yamlite.Float(v, label)
		case "max_bytes_mape_pct":
			c.MaxBytesMAPEPct, err = yamlite.Float(v, label)
		case "min_pearson_r":
			c.MinPearsonR, err = yamlite.Float(v, label)
		case "max_headline_mape_pct":
			c.MaxHeadlineMAPEPct, err = yamlite.Float(v, label)
		case "min_recovery_pct":
			c.MinRecoveryPct, err = yamlite.Float(v, label)
		case "diff_tolerance_pct":
			c.DiffTolerancePct, err = yamlite.Float(v, label)
		default:
			return fmt.Errorf("%s is not a criterion", label)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
