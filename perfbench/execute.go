package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_tps", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"read_qps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_p99_ms", "ms"},
	{"recover_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by the traced
// run. A layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"httpapi.exec_us", "us"},
	{"httpapi.view_us", "us"},
	{"httpapi.view_kb", "KB"},
	{"db.queue_wait_us", "us"},
	{"db.net_us", "us"},
	{"db.compose_us", "us"},
	{"db.maint_us", "us"},
	{"db.slowest_task_us", "us"},
	{"db.validate_us", "us"},
	{"db.fsync_us", "us"},
	{"db.install_us", "us"},
	{"db.publish_us", "us"},
	{"db.group_size", "tx"},
	{"db.commit_share_pct", "%"},
	{"wal.fsyncs_per_tx", "count"},
	{"wal.fsync_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_tx", "B"},
	{"wal.scan_s", "s"},
	{"mview.replay_us_per_record", "us"},
	{"mview.ckpt_load_s", "s"},
	{"irrelevance.checks_per_tx", "count"},
	{"irrelevance.discard_ratio", "ratio"},
	{"diffeval.compute_us", "us"},
	{"diffeval.rows_per_tx", "count"},
	{"diffeval.join_steps_per_tx", "count"},
	{"diffeval.useful_ratio", "ratio"},
	{"repl.apply_us_per_tx", "us"},
	{"repl.batch_txs", "tx"},
	{"repl.stream_bytes_per_tx", "B"},
	{"repl.lag_lsn_p99", "count"},
	{"repl.resyncs", "count"},
	{"runtime.alloc_kb_per_tx", "KB"},
	{"runtime.gc_cpu_pct", "%"},
	{"obs.trace_overhead_pct", "%"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.failed_ratio", "ratio"},
}

// session is one set-up instance of a workload.
type session interface {
	// measure runs the timed phase for d and then the correctness gates
	// and the recovery measurement; gate failures land in ph.gateErrs.
	measure(d time.Duration) (*phase, error)
	// close stops every server and database the session started.
	close()
}

// setupFunc builds a session; rec is nil for untraced runs.
type setupFunc func(e *env, rec *recorders) (session, error)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	metrics           map[string]metricValue
	attempted, failed int64
	gateErrs          []string
	spanFiles         []string
}

const (
	// An untraced run sets its workload up at least setupReps times,
	// and again while its set-ups took less than setupBudget in all, up
	// to maxSetupReps: a set-up of a fifth of a second is timed as many
	// times as one of a second is. setup_s is the median, and only the
	// last instance is measured.
	setupReps    = 3
	setupBudget  = 2 * time.Second
	maxSetupReps = 15
	// groupWindow is the group-commit window of every durable database,
	// the mviewd default.
	groupWindow = 2 * time.Millisecond
)

// execute runs one workload invocation. The untraced run sets up
// several times and measures the last instance for the full length.
// The traced run measures an untraced instance and a traced one for
// half the length each: the per-layer metrics come from the traced
// half, and the difference between the two is the tracing overhead.
func execute(e *env, setup setupFunc) (*report, error) {
	d := time.Duration(e.seconds * float64(time.Second))
	if !e.trace {
		var s session
		var setups []float64
		var spent time.Duration
		for i := 0; i < maxSetupReps && (i < setupReps || spent < setupBudget); i++ {
			if s != nil {
				s.close()
			}
			runtime.GC() // every set-up starts from a collected heap
			t0 := time.Now()
			var err error
			if s, err = setup(e, nil); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			spent += time.Since(t0)
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer s.close()
		ph, err := s.measure(d)
		if err != nil {
			return nil, err
		}
		ph.setupS = median(setups)
		return ph.endToEndReport()
	}

	base, err := measureOnce(e, setup, nil, d/2)
	if err != nil {
		return nil, err
	}
	rec := newRecorders()
	ph, err := measureOnce(e, setup, rec, d/2)
	if err != nil {
		return nil, err
	}
	files, err := rec.dump(e)
	if err != nil {
		return nil, err
	}
	rep := ph.layerReport(base)
	rep.gateErrs = append(base.gateErrs, rep.gateErrs...)
	rep.spanFiles = files
	return rep, nil
}

func measureOnce(e *env, setup setupFunc, rec *recorders, d time.Duration) (*phase, error) {
	s, err := setup(e, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()
	return s.measure(d)
}

// endToEndReport turns an untraced phase into the end-to-end metrics.
func (ph *phase) endToEndReport() (*report, error) {
	if ph.invalid != "" {
		return nil, fmt.Errorf("invalid run: %s", ph.invalid)
	}
	v := map[string]float64{
		"setup_s":        ph.setupS,
		"write_tps":      ph.fig.writeTPS,
		"write_p50_ms":   ph.fig.writeP50 * 1e3,
		"write_p99_ms":   ph.fig.writeP99 * 1e3,
		"read_qps":       ph.fig.readQPS,
		"read_p50_ms":    ph.fig.readP50 * 1e3,
		"read_p99_ms":    ph.fig.readP99 * 1e3,
		"visible_p50_ms": ph.fig.visP50 * 1e3,
		"visible_p99_ms": ph.fig.visP99 * 1e3,
		"recover_s":      ph.recoverS,
		"heap_mb":        ph.heapMB,
	}
	return ph.newReport(endToEnd, v), nil
}

func (ph *phase) newReport(defs []metricDef, v map[string]float64) *report {
	rep := &report{metrics: map[string]metricValue{}, attempted: ph.attempted, failed: ph.failed, gateErrs: ph.gateErrs}
	for _, m := range defs {
		rep.metrics[m.name] = metricValue{Value: v[m.name], Unit: m.unit}
	}
	return rep
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
