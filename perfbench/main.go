// Command perfbench is the repository's standing benchmark. It runs one
// of four seeded workloads against the public tsq API and prints, as
// the last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the same workload runs half its time
// untraced and half with a query trace attached to every read, and the
// metrics are the per-layer ones. Every answer the workload checks is
// compared with the sequential-scan oracle outside the timed region; a
// wrong answer sets "correct" to false and the exit code to 1.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and what every metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is reported by every workload's untraced run. Each metric
// has one meaning per workload; README.md tabulates them.
var endToEnd = []metricDef{
	{"primary_p50_ms", "ms"},
	{"primary_p95_ms", "ms"},
	{"secondary_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"disk_accesses_per_query", "count"},
	{"bytes_per_user_byte", "ratio"},
	{"setup_s", "s"},
}

// perLayer is reported by every workload's traced run; a layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"tsq.lock_wait_ms", "ms"},
	{"tsq.insert_p50_us", "us"},
	{"tsq.insert_p95_us", "us"},
	{"tsq.delete_p50_us", "us"},
	{"tsq.writes_per_s", "1/s"},
	{"core.plan_ms", "ms"},
	{"dft.features_ms", "ms"},
	{"rtree.filter_ms", "ms"},
	{"rtree.nodes_per_query", "count"},
	{"rtree.leaves_per_query", "count"},
	{"core.probe_ms", "ms"},
	{"core.lb_ms", "ms"},
	{"core.candidates_per_query", "count"},
	{"core.lb_skipped_per_query", "count"},
	{"core.lb_prune_ratio", "ratio"},
	{"core.match_ratio", "ratio"},
	{"core.verify_ms", "ms"},
	{"series.comparisons_per_query", "count"},
	{"series.abandoned_ratio", "ratio"},
	{"core.shard_merge_ms", "ms"},
	{"core.shard_skew", "ratio"},
	{"core.join_nodes_per_op", "count"},
	{"core.join_comparisons_per_op", "count"},
	{"storage.reads_per_query", "count"},
	{"storage.prefetched_per_query", "count"},
	{"storage.hit_ratio", "ratio"},
	{"storage.pages_written_per_write", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.group_commit_ratio", "ratio"},
	{"wal.checkpoints_per_1k_writes", "count"},
	{"wal.checkpoint_write_ms", "ms"},
	{"wal.recovery_s", "s"},
	{"obs.capture_written_per_query", "count"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_1k_ops", "count"},
	{"bench.reader_late_p95_ms", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"query-hot":     runQueryHot,
	"query-cold":    runQueryCold,
	"ingest-append": runIngestAppend,
	"ingest-mixed":  runIngestMixed,
	"join-stocks":   runJoinStocks,
}

// env carries one run's settings and collects its results.
type env struct {
	seed    int64
	dur     time.Duration // measured time of the run
	trace   bool
	workDir string // scratch files of this run; removed at exit

	record    map[string]any // the run record printed before the result
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string // wrong answers and failed operations, for stderr
}

// fail counts one failed operation or wrong answer.
func (e *env) fail(format string, args ...any) {
	e.failed++
	if len(e.problems) < 20 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times a run builds its database to time setup;
// the traced run builds once.
func (e *env) setupReps(n int) int {
	if e.trace {
		return 1
	}
	return n
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: query-hot, query-cold, ingest-append, join-stocks (or ingest-mixed)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds of the run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {query-hot|query-cold|ingest-append|join-stocks|ingest-mixed} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work := filepath.Join(cwd, ".bench_work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workDir: work,
		record:  map[string]any{},
		e2e:     map[string]float64{},
		layers:  map[string]float64{},
	}
	e.record["workload"] = *workload
	e.record["seed"] = *seed
	e.record["seconds"] = *seconds
	e.record["trace"] = *trace
	e.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	e.record["num_cpu"] = runtime.NumCPU()
	e.record["go_version"] = runtime.Version()
	e.record["git_revision"] = gitRevision()
	e.record["disk_note"] = "file latencies come from a warm OS page cache on a shared VM, not from a device"

	if err := fn(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range e.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *workload, p)
	}
	if e.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation completed\n", *workload)
		return 1
	}

	defs, vals := endToEnd, e.e2e
	if e.trace {
		defs, vals = perLayer, e.layers
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("%-34s %16.6f %s\n", d.name, v, d.unit)
	}
	rec, err := json.Marshal(e.record)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("run-record %s\n", rec)
	correct := e.failed == 0
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": e.attempted,
		"failed":    e.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// gitRevision reports the VCS revision stamped into the binary, which
// is absent when the benchmark was built outside a git checkout.
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of ds in milliseconds, interpolating
// linearly between order statistics; 0 for an empty sample.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// mean returns the mean of ds in milliseconds; 0 for an empty sample.
func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Millisecond)
}

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	return quantile(ds, 0.5) / 1000
}

// ratio divides, returning 0 when the denominator is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the files in dir whose names start with
// prefix: a database's page files, write-ahead logs and manifest.
func dirBytes(dir, prefix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, de := range ents {
		if !strings.HasPrefix(de.Name(), prefix) || de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
