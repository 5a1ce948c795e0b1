package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test holds the
// output to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks that the result line parses, is correct, and names exactly the
// metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--smoke"}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				if len(res.Metrics) != len(want[trace]) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want[trace]))
				}
				for name, unit := range want[trace] {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json %q", name, m.Unit, unit)
					}
				}
			})
		}
	}
}

// TestRefusesModeEnv checks that an execution-mode switch in the
// environment stops the run before any result is printed.
func TestRefusesModeEnv(t *testing.T) {
	t.Setenv("RES_SPMV", "sell")
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "solve-x104", "--smoke", "--seconds", "0.1"}, &out, &errb); code == 0 {
		t.Fatalf("ran with RES_SPMV set: %s", out.String())
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("printed a result with RES_SPMV set: %s", out.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input")
	}
}

func TestCovered(t *testing.T) {
	cs := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 25}, {Start: 30, End: -1}}
	if got := covered(cs); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
}
