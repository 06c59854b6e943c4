// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads against the public API of the checked-operations
// framework and checks every output against a reference computed
// without the checkers:
//
//	pipeline  reduce → sort → join over TCP, deferred checking with
//	          VerifyAsync between stages (the paper's Fig. 4 setting)
//	stream    streamed sum and permutation checks over the in-memory
//	          transport, eager checking (hashing and accumulation)
//	service   a resident service.Pool over TCP: a closed loop at a fixed
//	          number of jobs in flight; the traced run adds an open loop
//	          at a fixed rate
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it runs the same workload with an obs.Tracer installed
// and reports the per-layer metrics, including a self-time budget per
// layer, and writes the Chrome trace to --trace-dir.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; progress goes to standard
// error. See README.md in this directory for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one entry of the benchmark's metric catalogue; the
// catalogue must match BENCHMARK.json (see TestCatalogueMatchesManifest).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"melems_per_s", "Melem/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"checker_bytes_per_pe", "B", "lower"},
	{"detect_rate", "ratio", "higher"},
	{"ok_rate", "ratio", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, named after the repo's
// modules, reported by every workload with tracing on. A metric that
// does not apply to a workload (a service queue on the pipeline, say)
// reads 0 there.
var perLayer = []metricDef{
	{"hashing.crc_ns_per_key", "ns", "lower"},
	{"hashing.tab_ns_per_key", "ns", "lower"},
	{"core.accumulate_ms", "ms", "lower"},
	{"core.check_frac", "ratio", "lower"},
	{"core.overhead_vs_off", "ratio", "lower"},
	{"core.resolve_ms", "ms", "lower"},
	{"core.resolve_rounds", "count", "lower"},
	{"core.batch_words", "count", "lower"},
	{"ops.reduce_ms", "ms", "lower"},
	{"ops.sort_ms", "ms", "lower"},
	{"ops.join_ms", "ms", "lower"},
	{"ops.op_bytes_per_pe", "B", "lower"},
	{"comm.wire_bytes_per_pe", "B", "lower"},
	{"comm.msgs_per_pe", "count", "lower"},
	{"comm.conns_open", "count", "lower"},
	{"collective.ops", "count", "lower"},
	{"collective.ms", "ms", "lower"},
	{"collective.recv_wait_ms", "ms", "lower"},
	{"stream.chunks", "count", "lower"},
	{"stream.peak_resident", "count", "lower"},
	{"service.admit_wait_ms", "ms", "lower"},
	{"service.queue_ms", "ms", "lower"},
	{"service.job_ms", "ms", "lower"},
	{"service.in_flight_max", "count", "higher"},
	{"service.bytes_per_job", "B", "lower"},
	{"service.rounds_per_job", "count", "lower"},
	{"service.gen_late_ms", "ms", "lower"},
	{"service.paced_p50_ms", "ms", "lower"},
	{"service.paced_p99_ms", "ms", "lower"},
	{"dist.mesh_ms", "ms", "lower"},
	{"dist.workers_ms", "ms", "lower"},
	{"budget.wall_ms", "ms", "lower"},
	{"budget.ops_self_ms", "ms", "lower"},
	{"budget.core_self_ms", "ms", "lower"},
	{"budget.resolve_self_ms", "ms", "lower"},
	{"budget.service_self_ms", "ms", "lower"},
	{"unattributed_ms", "ms", "lower"},
	{"trace_overhead", "ratio", "lower"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string // where the Chrome trace goes; empty writes none
	tiny     bool   // test-sized inputs, for the benchmark's own tests
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's outcome: operations attempted, failures
// (false alarms, escapes, errors, reference mismatches, exact-count
// gate violations) and metric values.
type report struct {
	trace     bool
	attempted int64
	failed    int64
	values    map[string]float64
}

func newReport(trace bool) *report {
	return &report{trace: trace, values: make(map[string]float64)}
}

// fail counts one failed operation and says why on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	logf("FAIL: "+format, args...)
}

// set records a metric; names outside the mode's catalogue are dropped,
// so a workload can compute both sets unconditionally.
func (r *report) set(name string, v float64) {
	r.values[name] = v
}

// okRate is the share of attempted operations that did not fail.
func (r *report) okRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return 1 - float64(r.failed)/float64(r.attempted)
}

// result checks that every metric of the mode's catalogue was set to a
// finite number and assembles the output object.
func (r *report) result() (result, error) {
	cat := endToEnd
	if r.trace {
		cat = perLayer
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(cat)),
	}
	var missing []string
	for _, d := range cat {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(opt options, rep *report) error{
	"pipeline": runPipeline,
	"stream":   runStream,
	"service":  runService,
}

// run executes one workload and returns its result line.
func run(opt options) (result, error) {
	fn, ok := workloads[opt.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want pipeline, stream or service)", opt.workload)
	}
	if opt.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive, got %v", opt.seconds)
	}
	rep := newReport(opt.trace)
	if err := fn(opt, rep); err != nil {
		return result{}, fmt.Errorf("%s: %w", opt.workload, err)
	}
	return rep.result()
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "pipeline, stream or service")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.traceDir, "trace-dir", "", "directory for the Chrome trace of a traced run (empty: none)")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		logf("--trace must be 0 or 1, got %d", traceFlag)
		os.Exit(2)
	}
	opt.trace = traceFlag == 1
	logf("workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d", opt.workload, opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0))

	res, err := run(opt)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
