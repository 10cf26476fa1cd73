// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload for a fixed time, checks every
// output against the protocol's invariants, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload live-stream --seed 7 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and what each
// per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark can run.
type workload struct {
	name string
	// run performs one measured pass: set-ups, then operations until the
	// deadline. tr is nil on untraced passes.
	run func(p pass) (*outcome, error)
}

// workloads are the ones BENCHMARK.json declares, in its order.
var workloads = []workload{
	{"sim-paper", runSimPaper},
	{"sim-scale", runSimScale},
	{"live-stream", runLiveStream},
}

// heldBack workloads run by name but are not declared in BENCHMARK.json:
// a known defect fails some of their operations at random, so two sets
// of runs cannot agree on them (README.md, "Known defect").
var heldBack = []workload{
	{"live-swarm", runLiveSwarm},
}

// pass parameterises one measured pass of a workload.
type pass struct {
	seed    int64
	measure time.Duration // how long operations are issued
	tr      *tracer       // nil: untraced
}

// outcome is what one pass measured. Times are per operation; what an
// operation is depends on the workload (README.md, "Operations").
type outcome struct {
	setup      []float64 // seconds per set-up
	setupMean  bool      // setup_s is the mean of setup, not the median
	ops        []float64 // ms per completed operation
	first      []float64 // ms to the operation's first result or data frame
	receipt    []float64 // per-operation receipt ratio
	peakRSS    float64   // MiB: highest resident set seen in the measured phase
	attempted  int
	failed     int
	violations []string      // broken correctness invariants
	cpu        time.Duration // process CPU over the measured phase
	elapsed    time.Duration // wall time of the measured phase
	notes      []string      // extra human-readable lines
	// layer holds per-layer counts the workload measured itself; only
	// traced passes report them, beside the tracer's own.
	layer map[string]float64
}

func (o *outcome) violate(format string, args ...any) {
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// tailQ is the tail quantile op_tail_ms reports: p90, the highest
// percentile with ten samples beyond it on live-stream's ~150 sessions
// per run, and one the open loop's run-to-run tail noise does not swamp
// (live-swarm prints its p99 beside it).
const tailQ = 0.90

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"first_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_MB", "MB"},
	{"receipt_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEndMetrics(o *outcome) map[string]metric {
	setup := median(o.setup)
	if o.setupMean {
		setup = mean(o.setup)
	}
	vals := map[string]float64{
		"setup_s":       setup,
		"op_p50_ms":     median(o.ops),
		"op_tail_ms":    quantile(o.ops, tailQ),
		"first_p50_ms":  median(o.first),
		"cpu_ms_per_op": ms(o.cpu) / float64(max(1, len(o.ops))),
		"peak_rss_MB":   o.peakRSS,
		"receipt_ratio": median(o.receipt),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run: sim-paper, sim-scale, live-stream, or live-swarm (held back)")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 30, "how long operations are issued, in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for result stamps, spans and profiles")
	flag.Parse()

	var w *workload
	for _, c := range append(workloads, heldBack...) {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// The whole run, build excluded, must end within 180 s; a hung
	// session must not turn into a hung benchmark.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run exceeded 170 s")
		os.Exit(3)
	})
	defer watchdog.Stop()

	st := newStamp(w.name, *seed, *traced == 1)
	fmt.Println(st.line())
	p := pass{seed: *seed, measure: time.Duration(*seconds) * time.Second}
	res, err := execute(w, p, *traced == 1, *outDir, st)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range append(workloads, heldBack...) {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// execute runs the untraced pass and, for a traced run, the traced pass
// after it with the same seed, and assembles the result.
func execute(w *workload, p pass, traced bool, outDir string, st stamp) (result, error) {
	base, err := w.run(p)
	if err != nil {
		return result{}, err
	}
	e2e := endToEndMetrics(base)
	report(os.Stdout, w.name, "untraced", base, e2e)
	res := result{
		Correct:   len(base.violations) == 0,
		Attempted: base.attempted,
		Failed:    base.failed,
		Metrics:   e2e,
	}
	if traced {
		p.tr = newTracer()
		tp, err := w.run(p)
		if err != nil {
			return result{}, err
		}
		te2e := endToEndMetrics(tp)
		report(os.Stdout, w.name, "traced", tp, te2e)
		layers := p.tr.layerMetrics(tp)
		for _, m := range []string{"op_p50_ms", "first_p50_ms", "cpu_ms_per_op"} {
			layers["trace.overhead."+m] = metric{te2e[m].Value - e2e[m].Value, e2e[m].Unit}
		}
		p.tr.printAttribution(os.Stdout, w.name)
		printOverhead(os.Stdout, e2e, te2e)
		if err := p.tr.writeFiles(outDir, fmt.Sprintf("%s-seed%d", w.name, p.seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace files: %v\n", err)
		}
		res = result{
			Correct:   len(base.violations) == 0 && len(tp.violations) == 0,
			Attempted: base.attempted + tp.attempted,
			Failed:    base.failed + tp.failed,
			Metrics:   layers,
		}
	}
	if err := writeStamped(outDir, st, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result stamp: %v\n", err)
	}
	return res, nil
}

// report prints one pass's figures, under the per-workload names README
// uses, then any invariant violations.
func report(f *os.File, name, kind string, o *outcome, e2e map[string]metric) {
	fmt.Fprintf(f, "== %s (%s): %d attempted, %d failed, fail_ratio %.4f, %d ops in %.2f s, tail = p%g\n",
		name, kind, o.attempted, o.failed, float64(o.failed)/float64(max(1, o.attempted)),
		len(o.ops), o.elapsed.Seconds(), tailQ*100)
	keys := make([]string, 0, len(e2e))
	for k := range e2e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "metric %-16s %14.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintln(f, n)
	}
	for _, v := range o.violations {
		fmt.Fprintln(f, "VIOLATION:", v)
	}
}

func printOverhead(f *os.File, base, traced map[string]metric) {
	fmt.Fprintln(f, "tracing overhead (traced − untraced):")
	for _, m := range endToEnd {
		b, t := base[m.name].Value, traced[m.name].Value
		rel := 0.0
		if b != 0 {
			rel = (t - b) / b * 100
		}
		fmt.Fprintf(f, "  %-16s %12.4f → %12.4f %-5s (%+.1f%%)\n", m.name, b, t, m.unit, rel)
	}
}

// writeStamped stores the result with its host stamp, so results are
// only ever compared across the same host.
func writeStamped(dir string, st stamp, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Stamp  stamp  `json:"stamp"`
		Result result `json:"result"`
	}{st, res}, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if st.Traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", st.Workload, st.Seed, t)), b, 0o644)
}

// stamp identifies the host and build a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	UTC        string `json:"utc"`
}

func newStamp(workload string, seed int64, traced bool) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		UTC:        time.Now().UTC().Format(time.RFC3339),
	}
}

func (s stamp) line() string {
	return fmt.Sprintf("stamp workload=%s go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s seed=%d traced=%t utc=%s",
		s.Workload, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPUModel, s.Commit, s.Seed, s.Traced, s.UTC)
}
