// Command perfbench is the repository's benchmark: a single-process
// load generator and layer replayer for motserve (internal/serve) and
// the paper harness (internal/experiments). It runs one named workload
// with a seed, checks every answer, and prints each metric by name and
// unit; the last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds it first):
//
//	bash perfbench/run.sh --workload lookup-256 --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that replays the same op stream layer by layer and prints the
// per-layer metrics. README.md in this directory describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
)

// metricDef names one printed metric.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, layerMetrics by every
// traced run; BENCHMARK.json lists the same names.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"move_p50_us", "us"},
	{"move_p90_us", "us"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"peak_rss_mb", "MB"},
	{"query_cost_ratio", "ratio"},
}

var layerMetrics = []metricDef{
	{"graph.build_s", "s"},
	{"graph.dist_ns", "ns"},
	{"hier.build_s", "s"},
	{"core.move_ns", "ns"},
	{"core.query_ns", "ns"},
	{"core.allocs_per_op", "count"},
	{"core.maint_cost_ratio", "ratio"},
	{"core.query_cost_ratio", "ratio"},
	{"sim.op_ns", "ns"},
	{"sim.events_per_op", "count"},
	{"runtime.start_s", "s"},
	{"runtime.move_ns", "ns"},
	{"runtime.query_ns", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.goroutines", "count"},
	{"dynamics.fail_ns", "ns"},
	{"dynamics.recover_ns", "ns"},
	{"dynamics.repair_rebuild_ratio", "ratio"},
	{"serve.move_ns", "ns"},
	{"serve.query_ns", "ns"},
	{"serve.allocs_per_req", "count"},
	{"serve.server_move_p50_us", "us"},
	{"serve.server_query_p50_us", "us"},
	{"serve.queue_depth_max", "count"},
	{"serve.coalesced_share", "ratio"},
	{"serve.rejected", "count"},
	{"http.move_ns", "ns"},
	{"http.query_ns", "ns"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"experiments.onebyone_s", "s"},
	{"experiments.concurrent_s", "s"},
	{"experiments.churn_s", "s"},
	{"trace.overhead_pct", "%"},
}

// Metric is one value of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runOutcome is what a workload run hands back to main.
type runOutcome struct {
	values    map[string]float64
	samples   map[string]int // sample count behind each metric, where more than one
	attempted int
	failed    int
	firstErr  error
	spans     *Tracer
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spanDir  string
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed")
	flag.IntVar(&opt.seconds, "seconds", 10, "length of the measured phase, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced layer replay and prints the per-layer metrics")
	flag.StringVar(&opt.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	writeExpected := flag.String("write-expected", "", "regenerate the reproduce workload's expected tables into this directory and exit")
	flag.Parse()
	if *writeExpected != "" {
		if err := writeExpectedTables(*writeExpected); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	opt.trace = traceFlag == 1
	//motlint:ignore printlib the benchmark's result contract is its standard output
	if err := run(os.Stdout, opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, opt options) error {
	wl, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, workloadNames())
	}
	if opt.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	stamp(w, opt)
	out, err := wl(w, opt)
	if err != nil {
		return err
	}
	defs := e2eMetrics
	if opt.trace {
		defs = layerMetrics
		path, err := out.spans.Write(opt.spanDir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(out.spans.spans), path)
	}
	res := Result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]Metric{}}
	fmt.Fprintf(w, "%-32s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", opt.workload, d.name)
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %14.4f %-6s %d\n", d.name, v, d.unit, max(out.samples[d.name], 1))
	}
	fmt.Fprintf(w, "error_rate %.6f (%d failed of %d attempted)\n", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	if out.firstErr != nil {
		fmt.Fprintln(w, "first failure:", out.firstErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	if !res.Correct {
		return errors.New("wrong or failed answers; see the first failure above")
	}
	return nil
}

// stamp prints the run's provenance line.
func stamp(w io.Writer, opt options) {
	b, _ := json.Marshal(map[string]any{
		"workload":      opt.workload,
		"seed":          opt.seed,
		"seconds":       opt.seconds,
		"trace":         opt.trace,
		"num_cpu":       goruntime.NumCPU(),
		"gomaxprocs":    goruntime.GOMAXPROCS(0),
		"go_version":    goruntime.Version(),
		"git_commit":    gitCommit(),
		"source_digest": sourceDigest("."),
	})
	fmt.Fprintf(w, "stamp %s\n", b)
}
