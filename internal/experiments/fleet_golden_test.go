package experiments_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
	"resilience/internal/experiments"
)

// TestFleetOracleGolden pins the FNV-1a hash of the indexed verdict
// stream of the seed-1, 2000-scenario chaos campaign evaluated in
// process: the stream the fleet gate byte-compares a sharded campaign
// against.
func TestFleetOracleGolden(t *testing.T) {
	opts := fleet.Options{Campaign: chaos.Options{N: 2000, Seed: 1}}
	rep, err := fleet.Run(context.Background(), opts, fleet.NewOracle("", 2))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if err := fleet.WriteVerdicts(h, rep.Lines); err != nil {
		t.Fatal(err)
	}
	experiments.CheckGolden(t, "fleet-oracle-seed1-n2000.fnv", []byte(fmt.Sprintf("%016x\n", h.Sum64())))
}
