package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the goldens in testdata from the current code instead
// of checking against them:
//
//	go test ./internal/experiments -run 'SmokeAllTiny|Golden' -update
var update = flag.Bool("update", false, "rewrite the testdata goldens")

// CheckGolden compares got with testdata/name byte for byte, or writes
// it there under -update. Exported for the external golden tests.
func CheckGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSmokeAllTiny runs every registered experiment at tiny scale and
// pins its rendered output against testdata/<id>.golden. The paper's
// tables are functions of virtual time only, so any byte that moves is a
// change to the model or the solvers, not to host scheduling.
func TestSmokeAllTiny(t *testing.T) {
	cfg := Default(0) // Tiny
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			res, err := r.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			CheckGolden(t, r.ID+".golden", []byte(res.String()))
		})
	}
}
