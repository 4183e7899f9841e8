// Command perfbench is popproto's benchmark: three closed-loop workloads
// driven through the program's public functions and an in-process
// popprotod on loopback, every operation's output checked, every metric
// printed by name with its unit.
//
// Run from the repository root (perfbench/run.sh builds and execs it):
//
//	perfbench --workload elect|front-hit|ensemble-write --seed N --seconds S --trace 0|1
//	perfbench compare OLD.jsonl [NEW.jsonl]
//
// A run prints one JSON object as its last line of standard output:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Each run also appends its full record (host block, both
// metric sets where measured, tail percentile) to a JSON-lines result
// log, which compare mode reads. See README.md for the workloads and
// the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, the same names on
// every workload. work_per_s counts interactions (elect), requests
// (front-hit) or replicates (ensemble-write) per second.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"live_heap_mib", "MiB"},
}

// perLayer are the single-layer metrics of the traced run. Every traced
// run reports all of them; a layer the workload does not load reads 0.
var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"pp.ns_per_interaction", "ns"},
	{"pp.chunk_ms_p50", "ms"},
	{"pp.chunk_ms_tail", "ms"},
	{"pp.round_share", "ratio"},
	{"pp.interact_share", "ratio"},
	{"pp.skip_share", "ratio"},
	{"pp.handovers", "count"},
	{"pp.live_states_max", "count"},
	{"registry.new_ms", "ms"},
	{"service.handler_us", "us"},
	{"service.handler_allocs", "count"},
	{"service.submit_hit_us", "us"},
	{"service.view_encode_us", "us"},
	{"service.response_bytes", "B"},
	{"service.loopback_us", "us"},
	{"runcore.hit_ratio", "ratio"},
	{"service.prime_s", "s"},
	{"service.submit_miss_us", "us"},
	{"runcore.queue_wait_ms", "ms"},
	{"cluster.lease_rtt_ms", "ms"},
	{"cluster.complete_rtt_ms", "ms"},
	{"cluster.heartbeats", "count"},
	{"cluster.range_exec_ms", "ms"},
	{"cluster.lease_useful_ratio", "ratio"},
	{"ensemble.merge_us_per_range", "us"},
	{"store.persist_lag_ms", "ms"},
	{"store.batch_records_mean", "count"},
	{"store.fsyncs_per_op", "count"},
	{"service.done_before_durable", "count"},
}

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// maxOps stops the timed loop early (0 = run for seconds); the
	// self-check uses it to run a handful of ops.
	maxOps int
	// outDir receives traces and temporary stores.
	outDir string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// correct is false when a whole-run check failed (for example the
	// sampled byte-identity check), in addition to any failed op.
	correct bool
	e2e     map[string]float64
	layer   map[string]float64 // traced runs only
	tail    tailInfo
	// steal is the share of the machine's CPU time its host stole during
	// the timed span, recorded to explain noisy runs.
	steal float64
	notes []string
}

var workloads = map[string]func(config) (*outcome, error){
	"elect":          runElect,
	"front-hit":      runFrontHit,
	"ensemble-write": runEnsembleWrite,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "elect, front-hit or ensemble-write")
	seed := fs.Uint64("seed", 1, "workload seed: every spec, seed and request order derives from it")
	seconds := fs.Float64("seconds", 20, "length of the timed span")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	ops := fs.Int("ops", 0, "stop after this many timed ops (0 = run for -seconds)")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces and temporary stores")
	results := fs.String("results", "", "JSON-lines log the run's full record is appended to (default OUT/results.jsonl; \"-\" = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want elect, front-hit or ensemble-write)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		maxOps:  *ops,
		outDir:  *outDir,
	}
	if *results == "" {
		*results = filepath.Join(*outDir, "results.jsonl")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	out, err := wl(cfg)
	if err != nil {
		return err
	}
	h := hostBlock()
	rec := record{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Workload:  *workload,
		Seed:      *seed,
		Seconds:   *seconds,
		Trace:     *trace,
		Host:      h,
		Correct:   out.correct && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		E2E:       out.e2e,
		Layer:     out.layer,
		Tail:      out.tail,
		Steal:     out.steal,
	}
	if *results != "-" {
		if err := appendRecord(*results, rec); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "host: %s\n", h)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "host steal during the timed span: %.1f%% of CPU time\n", 100*out.steal)
	fmt.Fprintf(stdout, "op_tail_ms is p%g of %d ops (%d beyond it)\n", out.tail.Percentile, out.tail.Samples, out.tail.Beyond)
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", *workload, d.name)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// record is one run's line in the result log.
type record struct {
	Time      string             `json:"time"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Tail      tailInfo           `json:"tail"`
	Steal     float64            `json:"stealShare"`
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
