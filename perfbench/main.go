// Command perfbench is the mview repository benchmark. It runs one of
// three workloads against the in-process engine — ingest (durable
// group-commit HTTP writes on a 200k-row base), fanout (the paper's
// many-views filter-and-maintain workload) and replica (a follower
// serving reads while it applies a fixed-rate write stream) — checks
// the results against full re-evaluation, and prints one JSON result
// line as the last line of standard output.
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a traced run. See
// README.md for the workloads, the metrics and the span dump format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env is what every workload receives: its inputs' seed, how long to
// measure, whether this is the traced run, and where it may write.
type env struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	workDir string // durable data directories; removed at exit
	outDir  string // span dumps and result stamps
	logf    func(format string, args ...any)
}

// workload is one benchmark workload at a given size.
type workload struct {
	name   string
	why    string
	params any
	setup  setupFunc
}

// workloads are the benchmark's workloads at full size.
func workloads() []workload {
	return []workload{
		{"ingest", "production write path: durable group commit, fsync and HTTP on a 200k-row base, 10^5x the per-commit delta", defaultIngest(), setupIngest(defaultIngest())},
		{"fanout", "paper workload: 40 filtered views, most tuples irrelevant to most views, so the §4 filter and §5 maintenance set throughput", defaultFanout(), setupFanout(defaultFanout())},
		{"replica", "follower serves reads while applying a 300 tx/s stream: stream, decode, apply and solo group-commit writer on the blocking path", defaultReplica(), setupReplica(defaultReplica())},
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: ingest | fanout | replica")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for data, span dumps and result stamps")
		gitSHA  = flag.String("git-sha", "unknown", "source revision recorded in the result stamp")
	)
	flag.Parse()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			c := c
			w = &c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("usage: -workload ingest|fanout|replica -seed N -seconds S -trace 0|1")
		return 2
	}
	workDir := filepath.Join(*out, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	e := &env{name: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: workDir, outDir: *out, logf: logf}

	start := time.Now()
	rep, err := execute(e, w.setup)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	stamp := map[string]any{
		"workload": w.name,
		"params":   w.params,
		"seed":     *seed,
		"seconds":  *seconds,
		"harness": map[string]any{"windows": windows, "setup_reps": setupReps,
			"setup_budget": setupBudget.String(), "max_setup_reps": maxSetupReps,
			"group_window": groupWindow.String()},
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    *gitSHA,
		"wall_s":     time.Since(start).Seconds(),
		"gates":      rep.gateErrs,
		"spans":      rep.spanFiles,
	}
	result := map[string]any{
		"correct":   len(rep.gateErrs) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	}
	if err := writeStamp(e, stamp, result); err != nil {
		logf("%v", err)
	}
	line, err := json.Marshal(map[string]any{"stamp": stamp})
	if err == nil {
		fmt.Println(string(line))
	}
	line, err = json.Marshal(result)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.gateErrs) > 0 {
		logf("%s: correctness gates failed:\n  %s", w.name, strings.Join(rep.gateErrs, "\n  "))
		return 1
	}
	return 0
}

// writeStamp keeps the stamped result beside the span dumps so runs can
// be compared later.
func writeStamp(e *env, stamp, result map[string]any) error {
	dir := filepath.Join(e.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"stamp": stamp, "result": result}, "", "  ")
	if err != nil {
		return err
	}
	mode := map[bool]int{false: 0, true: 1}[e.trace]
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", e.name, e.seed, mode)), b, 0o644)
}
