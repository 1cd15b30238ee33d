// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads end to end — the paper's per-app pipeline, a power
// sweep over the cost simulator, and a fleet scenario — checks the
// outputs, and prints the end-to-end metrics. With --trace 1 it instead
// profiles every workload with spans around each call into the program's
// layers and prints the per-layer table.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_ops_per_s", "1/s"},
}

// workloadNames is the order the traced run profiles the workloads in.
var workloadNames = []string{"pipeline", "sweep", "fleet"}

// selfLayers are the layers whose self time the traced run reports: the
// first dot-separated word of a span name.
var selfLayers = []string{
	"bench", "report", "dataset", "nn", "core", "tile", "quant", "hawaii",
	"power", "models", "iprune", "fleet", "obs", "tensor",
}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dataset.gen_s", "s"},
		{"nn.pretrain_s", "s"},
		{"nn.train_samples_per_s", "1/s"},
		{"tensor.gemm_gflops", "GFLOP/s"},
		{"core.prune_s", "s"},
		{"core.iter_s_p50", "s"},
		{"core.iters", "count"},
		{"report.eval_s", "s"},
		{"tile.acc_outputs", "count"},
		{"hawaii.sim_latency_s", "s"},
		{"power.failures", "count"},
		{"speedup_x", "x"},
		{"pruned_acc", "frac"},
		{"hawaii.engine_infer_ms_p50", "ms"},
		{"hawaii.engine_reexec_frac", "frac"},
		{"hawaii.schedule_us", "us"},
		{"hawaii.schedule_alloc_kb", "KB"},
		{"power.newsim_us", "us"},
		{"hawaii.costsim_ns_per_op", "ns"},
		{"fleet.parse_s", "s"},
		{"quant.acc_probe_s", "s"},
		{"obs.events", "count"},
		{"obs.emit_ns", "ns"},
		{"obs.retained_mb", "MB"},
		{"pool.speedup", "x"},
		{"pool.fleet_cpu_per_wall", "x"},
		{"trace.spans", "count"},
		{"host.speed", "x"},
	}
	for _, w := range workloadNames {
		defs = append(defs,
			metricDef{"go.alloc_mb." + w, "MB"},
			metricDef{"go.gc_cpu_frac." + w, "frac"},
			metricDef{"trace.overhead_s." + w, "s"},
		)
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_s." + l, "s"})
	}
	return defs
}()

// metrics collects a run's values by name; buildResult checks them
// against the expected definitions before printing.
type metrics map[string]float64

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checks counts correctness checks. Every check is one attempted
// operation; a false one is a failed operation and makes the run exit
// non-zero.
type checks struct {
	attempted, failed int64
	// force turns the next check into a failure: the self-test hook that
	// proves a failed check reaches the exit code.
	force bool
	log   io.Writer
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if c.force {
		ok, c.force = false, false
		format = "forced failure: " + format
	}
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "check failed: "+format+"\n", args...)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pipeline | sweep | fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the timed phase runs rounds")
	trace := fs.Int("trace", 0, "1: profile every workload with spans and report per-layer metrics")
	forceFail := fs.Bool("force-fail", false, "self-test: fail the first check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := newWorkload(*name, *seed)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload pipeline|sweep|fleet, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// Every workload runs on one P. On a shared two-vCPU host a second P
	// tied every stop-the-world GC phase, and the fleet's channel
	// hand-offs, to the host's scheduling of the other vCPU: the same
	// sweep round took 0.8 s on one P and 1.4 to 1.7 s on two. On one P
	// a round's time is the program's own work. The fleet still fans out
	// over one worker per CPU; the traced run measures the pool's
	// speed-up with one P per CPU.
	runtime.GOMAXPROCS(1)
	chk := &checks{force: *forceFail, log: stderr}
	var m metrics
	var defs []metricDef
	var err error
	if *trace == 1 {
		m, err = profileAll(*name, *seed, chk, stdout)
		defs = perLayer
	} else {
		m, err = measure(w, *seconds, chk, stderr)
		defs = endToEnd
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := buildResult(m, defs, chk)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printTable(stdout, res, defs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult turns the collected values into the result object, insisting
// that exactly the defined metrics were measured and all are finite.
func buildResult(m metrics, defs []metricDef, chk *checks) (*result, error) {
	res := &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		var extra []string
		for k := range m {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no check was attempted")
	}
	return res, nil
}

func printTable(w io.Writer, res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
}
