package main

import (
	_ "embed"
	"encoding/json"
	"os"
)

// goldensJSON pins the exact outcomes of the default seed's operations:
// per-solve digests for the solve workloads and per-chunk verdict-stream
// hashes for the campaign. Rewrite it with
//
//	bash perfbench/run.sh --workload W --seed 1 --seconds 60 --trace 0 --update-goldens perfbench/goldens.json
//
//go:embed goldens.json
var goldensJSON []byte

// loadGoldens returns the pinned outcomes of this workload, or nil when
// the run is not the default-seed full-size run they were recorded from.
func loadGoldens(b *bench) ([]string, error) {
	if b.seed != 1 || b.smoke || b.goldens != "" {
		return nil, nil
	}
	var all map[string][]string
	if err := json.Unmarshal(goldensJSON, &all); err != nil {
		return nil, err
	}
	return all[b.workload], nil
}

// writeGoldens records this run's outcomes as the workload's goldens when
// --update-goldens was given.
func writeGoldens(b *bench, outcomes []string) error {
	if b.goldens == "" {
		return nil
	}
	all := map[string][]string{}
	if data, err := os.ReadFile(b.goldens); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return err
		}
	}
	all[b.workload] = outcomes
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	b.note("goldens: recorded %d outcomes of %s in %s", len(outcomes), b.workload, b.goldens)
	return os.WriteFile(b.goldens, append(data, '\n'), 0o644)
}
