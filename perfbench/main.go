// Command perfbench is the repository's benchmark: it runs one named
// workload against the program's Go API from a single process, checks the
// outputs, and prints every metric by name and unit, ending with one JSON
// line. With -trace 1 it replays the same seeded inputs with a span around
// each call into a layer and prints the per-layer metrics instead.
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps the Go build cache inside the checkout:
//
//	sh perfbench/run.sh --workload service-queries --seed 1 --seconds 30 --trace 0
//
// See perfbench/RATIONALE.md for why each workload and metric exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares; a
// run prints exactly one of the two sets (TestMetricNamesMatchManifest
// keeps them in step with the manifest).
var (
	endToEnd = []string{"setup_s", "cpu_ms_per_op", "retained_heap_mb"}
	perLayer = []string{
		"topology.load_us", "core.bind_us", "analysis.bound_us", "analysis.backlog_us",
		"sim.setup_us", "sim.ns_per_event", "sim.events_per_run", "sim.allocs_per_window", "sim.finish_us",
		"sweep.busy_ratio", "gc.cycles_per_op", "alloc_kb_per_op",
		"trace.overhead_ratio", "trace.unattributed_ratio",
	}
)

// traceDir is where a traced run writes its spans, inside the checkout's
// build directory.
const traceDir = ".bench_build/traces"

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	out     io.Writer // the human-readable report
}

// report collects the metrics of one run and prints each as it is set.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}}
}

// set records a metric of the JSON result and prints it.
func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "%-28s %14.6g %-6s %s\n", name, v, unit, note)
}

// info prints a figure that is reported but not part of the JSON result:
// a wall-clock figure too unsteady on a shared VM to carry a bound, or a
// layer figure that only this workload's path reaches.
func (r *report) info(name string, v float64, unit, note string) {
	fmt.Fprintf(r.out, "  %-26s %14.6g %-6s %s\n", name, v, unit, note)
}

// workload is one named input set: run measures the end-to-end metrics,
// trace replays the same inputs and measures the per-layer metrics. Both
// return the result with its correctness verdict and counts filled in.
type workload struct {
	name  string
	run   func(cfg runConfig, r *report) (result, error)
	trace func(cfg runConfig, r *report) (result, error)
}

var workloads = []workload{
	{name: "service-queries", run: runService, trace: traceService},
	{name: "validation-sweep", run: runValidation, trace: traceValidation},
	{name: "bounds-grid", run: runBounds, trace: traceBounds},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: service-queries, validation-sweep or bounds-grid")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced replay printing the per-layer metrics")
	calibrate := fs.Bool("calibrate", false, "measure the service's closed-loop saturation rate instead of a workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", *seconds)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: stdout}
	if *calibrate {
		return calibrateService(cfg)
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	w := workloads[i]
	fmt.Fprintf(stdout, "workload %s, seed %d, %d s, trace %d\n", w.name, *seed, *seconds, *traced)
	rep := newReport(stdout)
	var (
		res  result
		err  error
		want []string
	)
	switch *traced {
	case 0:
		res, err = w.run(cfg, rep)
		want = endToEnd
	case 1:
		res, err = w.trace(cfg, rep)
		want = perLayer
	default:
		return fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	if err != nil {
		return err
	}
	res.Metrics = rep.metrics
	for _, m := range want {
		if _, ok := res.Metrics[m]; !ok {
			return fmt.Errorf("workload %s did not report metric %s", w.name, m)
		}
	}
	if len(res.Metrics) != len(want) {
		return errors.New("workload reported metrics outside the declared set")
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", w.name)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
