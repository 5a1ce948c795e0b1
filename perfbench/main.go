// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in this process, times it from outside the program
// through the public functions of the resilience packages, checks every
// output, and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced and reports the per-layer metrics instead. Run it
// through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload solve-x104 --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it, in
// presentation order.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"solve-nd24k", func(b *bench) error { return runSolve(b, solveND24K) }},
	{"solve-x104", func(b *bench) error { return runSolve(b, solveX104) }},
	{"campaign", runCampaign},
	{"serve-zipf", runServe},
}

// refusedEnv are the program's execution-mode switches. The benchmark
// measures the program's defaults, so any of them being set is an error.
var refusedEnv = []string{"RES_SCHED", "RES_SPMV", "RES_WORKERS", "RES_OVERLAP", "RES_OBS"}

// bench carries one workload run: its parameters, the metrics it sets,
// and its operation accounting.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	smoke    bool
	traced   bool
	goldens  string // goldens file to rewrite from this run ("" = check)

	tr     *tracer
	values map[string]float64
	out    io.Writer

	attempted, failed int
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// note prints one human-readable result line.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// op accounts one operation; a failed one prints why.
func (b *bench) op(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.note("FAILED: "+format, args...)
	}
}

// ops accounts n operations of which failed failed.
func (b *bench) ops(n, failed int) {
	b.attempted += n
	b.failed += failed
}

// setupTimes sets setup_s to the median of repeated set-ups.
func (b *bench) setupTimes(ts []float64, what string) {
	settle()
	b.set("setup_s", median(ts))
	b.note("setup_s %.6f s (median of %d set-ups: %s)", median(ts), len(ts), what)
}

// window sets the end-to-end metrics of a timed window: units completed
// per second, operation latencies (seconds), and resident memory (the
// median of the memory sampler's per-second peaks).
func (b *bench) window(units int, elapsed float64, lat, peaks []float64, unit, op string) {
	b.set("peak_rss_mb", median(peaks))
	b.note("peak_rss_mb %.3f MB (median of %d one-second peaks; highest %.3f MB)", median(peaks), len(peaks), quantile(peaks, 1))
	q := tailQuantile(len(lat))
	b.set("throughput_per_s", float64(units)/elapsed)
	b.set("latency_p50_ms", median(lat)*1e3)
	b.set("latency_tail_ms", quantile(lat, q)*1e3)
	b.note("throughput_per_s %.4f %s/s (%d %s in %.3f s)", float64(units)/elapsed, unit, units, unit, elapsed)
	b.note("latency_p50_ms %.4f ms, latency_tail_ms %.4f ms = p%.2f (n=%d %s)",
		median(lat)*1e3, quantile(lat, q)*1e3, 100*q, len(lat), op)
}

// tailQuantile is the highest quantile, at most 0.99, that leaves at
// least ten of n samples beyond it, and never below the median.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.99, q))
}

// settle collects garbage and returns freed memory to the OS, so one
// set-up repetition's garbage cannot land in the next one's time or in
// the timed window's peak resident set.
func settle() { debug.FreeOSMemory() }

// overhead sets trace.overhead_pct from the untraced and traced pass
// latencies of the same operations.
func (b *bench) overhead(untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	if u > 0 {
		b.set("trace.overhead_pct", (t-u)/u*100)
	}
	b.note("tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms over the same %d operations",
		t*1e3, u*1e3, len(traced))
}

// purity fails the run unless the traced and untraced passes produced the
// same exact counts.
func (b *bench) purity(what string, untraced, traced []string) {
	same := len(untraced) == len(traced)
	for i := 0; same && i < len(untraced); i++ {
		same = untraced[i] == traced[i]
	}
	b.op(same, "tracing purity: %s differ between the traced and untraced passes", what)
	if same {
		b.note("tracing purity: %d %s identical in the traced and untraced passes", len(traced), what)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark invocation and returns the exit code. A
// result line is printed only when the workload ran to completion.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: solve-nd24k, solve-x104, campaign or serve-zipf")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny inputs, for the smoke test")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to")
	goldens := fs.String("update-goldens", "", "rewrite this goldens file from the run (seed 1 only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var drive func(*bench) error
	for _, w := range workloads {
		if w.name == *workload {
			drive = w.run
		}
	}
	if drive == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of solve-nd24k, solve-x104, campaign, serve-zipf), --seconds > 0, --trace 0|1\n")
		return 2
	}
	for _, k := range refusedEnv {
		if _, set := os.LookupEnv(k); set {
			fmt.Fprintf(stderr, "perfbench: refusing to run with %s set: the benchmark measures the program's defaults\n", k)
			return 2
		}
	}
	if *goldens != "" && (*seed != 1 || *smoke) {
		fmt.Fprintf(stderr, "perfbench: goldens are recorded from --seed 1 without --smoke\n")
		return 2
	}

	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, smoke: *smoke,
		traced: *trace == 1, goldens: *goldens,
		values: make(map[string]float64), out: stdout,
	}
	printProvenance(stdout, b)
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.traced && b.tr != nil {
		b.note("per-span self time of the traced pass:")
		b.tr.writeLayers(stdout)
		if *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
			if err := writeFile(path, b.tr.writeSpans); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
			b.note("spans written to %s", path)
		}
	}

	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metricValue)}
	res.Correct = b.failed == 0 && b.attempted > 0
	for _, d := range defs {
		// JSON has no infinity; a failed request's latency is the
		// largest number instead.
		v := math.Min(b.values[d.name], math.MaxFloat64)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if b.traced {
			b.note("layer %-30s %16.6f %-6s moves %s", d.name, v, d.unit, d.moves)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printProvenance records the host shape, toolchain, source revision and
// workload seed, so results from different machine shapes are never
// compared by mistake.
func printProvenance(w io.Writer, b *bench) {
	rev, dirty := gitRevision()
	p := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"trace":      b.traced,
		"seconds":    b.seconds,
		"smoke":      b.smoke,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"git_rev":    rev,
		"git_dirty":  dirty,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
	line, _ := json.Marshal(map[string]any{"provenance": p})
	fmt.Fprintf(w, "%s\n", line)
}

// gitRevision reports HEAD and whether the tree is dirty, when the
// working directory is the root of a git checkout; git is kept from
// searching parent directories.
func gitRevision() (string, bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	if _, err := os.Stat(filepath.Join(wd, ".git")); err != nil {
		return "none (not a git checkout)", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		var out bytes.Buffer
		cmd.Stdout = &out
		err := cmd.Run()
		return strings.TrimSpace(out.String()), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", false
	}
	st, err := git("status", "--porcelain")
	return rev, err == nil && st != ""
}

// loop runs op(i) for i = 0, 1, ... and returns the latency in seconds
// each operation reports for its timed part, and the elapsed window. With maxOps > 0 it runs exactly that
// many; otherwise it runs until the window of seconds is spent, starting
// another operation only while it is expected to finish no later than
// half an operation past the deadline.
func loop(seconds float64, maxOps int, op func(i int) (float64, error)) ([]float64, float64, error) {
	var lat []float64
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start).Seconds()
		if maxOps > 0 {
			if i >= maxOps {
				break
			}
		} else if i > 0 && el+0.5*lat[len(lat)-1] > seconds {
			break
		}
		d, err := op(i)
		if err != nil {
			return nil, 0, err
		}
		lat = append(lat, d)
	}
	return lat, time.Since(start).Seconds(), nil
}
