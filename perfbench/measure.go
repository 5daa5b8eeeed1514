package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"mview"
	"mview/internal/obs"
)

// sample is one observation: when it was made, in seconds since its
// phase began, and its value (seconds, for latencies).
type sample struct{ at, v float64 }

type samples []sample

// quantile is the nearest-rank q-quantile of the values; 0 for none.
func (s samples) quantile(q float64) float64 {
	c := make([]float64, len(s))
	for i, x := range s {
		c[i] = x.v
	}
	return quantile(c, q)
}

// quantile is the nearest-rank q-quantile of xs, which it sorts; 0 for
// none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, x := range s {
		t += x.v
	}
	return t / float64(len(s))
}

// windows is how many equal windows a phase is cut into. End-to-end
// figures are the mean of the middle half of the per-window figures:
// a burst of interference from outside the benchmark moves a few
// windows, which are dropped, while the engine's own slow and fast
// stretches are averaged rather than decided by whichever holds the
// middle window.
const windows = 20

// windowed cuts [0,span) into windows and returns the mean of the
// middle half of f(the window's samples, the window's length in
// seconds) over them.
func (s samples) windowed(span float64, f func(w samples, secs float64) float64) float64 {
	w := span / windows
	parts := make([]samples, windows)
	for _, x := range s {
		i := min(max(int(x.at/w), 0), windows-1)
		parts[i] = append(parts[i], x)
	}
	figs := make([]float64, windows)
	for i, p := range parts {
		figs[i] = f(p, w)
	}
	sort.Float64s(figs)
	mid := figs[windows/4 : windows-windows/4]
	var t float64
	for _, x := range mid {
		t += x
	}
	return t / float64(len(mid))
}

// windowedQuantile is the windowed figure of the q-quantile.
func (s samples) windowedQuantile(span, q float64) float64 {
	return s.windowed(span, func(w samples, _ float64) float64 { return w.quantile(q) })
}

// windowedRate is the windowed figure of samples per second.
func (s samples) windowedRate(span float64) float64 {
	return s.windowed(span, func(w samples, secs float64) float64 { return float64(len(w)) / secs })
}

// latencies collects timed samples from several goroutines.
type latencies struct {
	mu sync.Mutex
	at []time.Time
	v  []time.Duration
}

// add records a latency d observed at time at.
func (l *latencies) add(at time.Time, d time.Duration) {
	l.mu.Lock()
	l.at = append(l.at, at)
	l.v = append(l.v, d)
	l.mu.Unlock()
}

// take returns the samples timed from origin and releases its buffers.
func (l *latencies) take(origin time.Time) samples {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := make(samples, len(l.v))
	for i := range l.v {
		s[i] = sample{l.at[i].Sub(origin).Seconds(), l.v[i].Seconds()}
	}
	l.at, l.v = nil, nil
	return s
}

// splitReads times reads that run in two halves, one before and one
// after a run's writes, so they sample two stretches of a shared
// host's CPU. Samples are timed as if the halves ran back to back.
type splitReads struct {
	lat   latencies
	first time.Time // when the first half began
	secs  float64   // seconds read so far
}

// run calls read until d has passed, on a collected heap, and records
// the latency of every call that reports success.
func (r *splitReads) run(d time.Duration, read func() bool) {
	runtime.GC()
	r0 := time.Now()
	if r.first.IsZero() {
		r.first = r0
	}
	shift := r0.Sub(r.first) - time.Duration(r.secs*float64(time.Second))
	for deadline := r0.Add(d); time.Now().Before(deadline); {
		start := time.Now()
		if !read() {
			continue
		}
		now := time.Now()
		r.lat.add(now.Add(-shift), now.Sub(start))
	}
	r.secs += time.Since(r0).Seconds()
}

// take returns the samples of both halves.
func (r *splitReads) take() samples { return r.lat.take(r.first) }

// phase is everything one measured instance produced: the figures of
// its client-side samples, the engine's counters around the write
// phase, and the results of recovery and the correctness gates.
type phase struct {
	setupS float64

	fig               figures
	writeSecs         float64
	readSecs          float64
	attempted, failed int64
	viewBytes         int64 // response bytes of view reads
	heapMB            float64

	leader, follower counterDelta // over the write phase
	reads            counterDelta // the database serving reads, from its first read to its last
	rt               runtimeDelta
	computeS         float64 // traced diffeval.compute time on the leader

	streamBytes int64
	lagLSN      []float64
	resyncs     float64

	recoverS, replayS, replayRecords, scanS float64

	invalid  string
	gateErrs []string
}

// figures are what a phase reports from its client-side samples.
type figures struct {
	writeTPS, writeP50, writeP99 float64
	readQPS, readP50, readP99    float64
	visP50, visP99               float64 // visibility is timed during the writes
	writeMean                    float64
	lateP50, lateP99             float64 // open-loop send lateness
	reads                        int
}

// summarize turns the phase's latency samples into its figures, so the
// samples can be dropped before the live heap is measured.
func (ph *phase) summarize(write, read, vis, late samples) {
	ph.fig = figures{
		writeTPS:  write.windowedRate(ph.writeSecs),
		writeP50:  write.windowedQuantile(ph.writeSecs, 0.50),
		writeP99:  write.windowedQuantile(ph.writeSecs, 0.99),
		readQPS:   read.windowedRate(ph.readSecs),
		readP50:   read.windowedQuantile(ph.readSecs, 0.50),
		readP99:   read.windowedQuantile(ph.readSecs, 0.99),
		visP50:    vis.windowedQuantile(ph.writeSecs, 0.50),
		visP99:    vis.windowedQuantile(ph.writeSecs, 0.99),
		writeMean: write.mean(),
		lateP50:   late.quantile(0.50),
		lateP99:   late.quantile(0.99),
		reads:     len(read),
	}
}

func (ph *phase) gate(err error) {
	if err != nil {
		ph.gateErrs = append(ph.gateErrs, err.Error())
	}
}

// point is one database's counters at an instant.
type point struct {
	series map[string][]obs.SeriesSnapshot
	crit   mview.CriticalPathSummary
	stats  mview.Stats // summed over every view
}

func capture(db *mview.DB) point {
	p := point{series: map[string][]obs.SeriesSnapshot{}, crit: db.CriticalPath()}
	if reg := db.Metrics(); reg != nil {
		for _, s := range reg.Snapshot() {
			p.series[s.Name] = append(p.series[s.Name], s)
		}
	}
	for _, v := range db.Views() {
		st, err := db.Stats(v)
		if err != nil {
			continue
		}
		p.stats.RowsEvaluated += st.RowsEvaluated
		p.stats.JoinSteps += st.JoinSteps
		p.stats.DeltaInserts += st.DeltaInserts
		p.stats.DeltaDeletes += st.DeltaDeletes
	}
	return p
}

// total sums a series family over the label sets that contain every
// key/value pair of match: the value of counters and gauges, or the
// observation count and sum of histograms.
func (p point) total(name string, match ...string) (value, count, sum float64) {
	for _, s := range p.series[name] {
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			if s.Labels[match[i]] != match[i+1] {
				ok = false
			}
		}
		if ok {
			value += s.Value
			count += float64(s.Count)
			sum += s.Sum
		}
	}
	return
}

// counterDelta is the change of one database's counters between two
// points.
type counterDelta struct{ a, b point }

func (d counterDelta) value(name string, match ...string) float64 {
	x, _, _ := d.b.total(name, match...)
	y, _, _ := d.a.total(name, match...)
	return x - y
}

// hist returns the change of a histogram's observation count and sum.
func (d counterDelta) hist(name string, match ...string) (count, sum float64) {
	_, c1, s1 := d.b.total(name, match...)
	_, c0, s0 := d.a.total(name, match...)
	return c1 - c0, s1 - s0
}

// histMean is the mean of the observations made between the points.
func (d counterDelta) histMean(name string, match ...string) float64 {
	c, s := d.hist(name, match...)
	return ratio(s, c)
}

func (d counterDelta) batches() float64 {
	return float64(d.b.crit.Batches - d.a.crit.Batches)
}

func (d counterDelta) critSeconds() float64 { return d.b.crit.Seconds - d.a.crit.Seconds }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeDelta is the change of the Go runtime's allocation and GC CPU
// counters.
type runtimeDelta struct{ allocBytes, gcCPU, totalCPU float64 }

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func runtimeSince(a []metrics.Sample) runtimeDelta {
	b := readRuntime()
	v := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeDelta{
		allocBytes: v(b[0]) - v(a[0]),
		gcCPU:      v(b[1]) - v(a[1]),
		totalCPU:   v(b[2]) - v(a[2]),
	}
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layerReport turns a traced phase into the per-layer metrics; base is
// the untraced phase run beside it.
func (ph *phase) layerReport(base *phase) *report {
	l, f := ph.leader, ph.follower
	tx := l.value("mview_commits_total")
	v := map[string]float64{}
	v["httpapi.exec_us"] = l.histMean("mview_http_request_seconds", "endpoint", "POST /v1/exec") * 1e6
	v["httpapi.view_us"] = ph.reads.histMean("mview_http_request_seconds", "endpoint", "GET /v1/views/{name}") * 1e6
	v["httpapi.view_kb"] = ratio(float64(ph.viewBytes), float64(ph.fig.reads)) / 1024
	for _, st := range []string{"queue_wait", "net", "compose", "maint", "slowest_task", "validate", "fsync", "install", "publish"} {
		_, sum := l.hist("mview_commit_stage_seconds", "stage", st)
		v["db."+st+"_us"] = ratio(sum, tx) * 1e6
	}
	v["db.group_size"] = ratio(tx, l.batches())
	v["db.commit_share_pct"] = 100 * ratio(ratio(l.critSeconds(), l.batches()), ph.fig.writeMean)
	v["wal.fsyncs_per_tx"] = ratio(l.value("mview_wal_fsyncs_total"), tx)
	v["wal.fsync_us"] = l.histMean("mview_wal_fsync_seconds") * 1e6
	v["wal.append_us"] = l.histMean("mview_wal_append_seconds") * 1e6
	v["wal.bytes_per_tx"] = ratio(l.value("mview_wal_bytes_written_total"), tx)
	v["wal.scan_s"] = ph.scanS
	v["mview.replay_us_per_record"] = ratio(ph.replayS, ph.replayRecords) * 1e6
	v["mview.ckpt_load_s"] = ph.recoverS - ph.replayS
	discarded, passed := l.value("mview_filter_discarded_total"), l.value("mview_filter_passed_total")
	v["irrelevance.checks_per_tx"] = ratio(discarded+passed, tx)
	v["irrelevance.discard_ratio"] = ratio(discarded, discarded+passed)
	v["diffeval.compute_us"] = ratio(ph.computeS, tx) * 1e6
	joinSteps := float64(l.b.stats.JoinSteps - l.a.stats.JoinSteps)
	useful := float64(l.b.stats.DeltaInserts + l.b.stats.DeltaDeletes - l.a.stats.DeltaInserts - l.a.stats.DeltaDeletes)
	v["diffeval.rows_per_tx"] = ratio(float64(l.b.stats.RowsEvaluated-l.a.stats.RowsEvaluated), tx)
	v["diffeval.join_steps_per_tx"] = ratio(joinSteps, tx)
	v["diffeval.useful_ratio"] = ratio(useful, joinSteps)
	v["repl.apply_us_per_tx"] = ratio(f.critSeconds(), tx) * 1e6
	v["repl.batch_txs"] = ratio(tx, f.batches())
	v["repl.stream_bytes_per_tx"] = ratio(float64(ph.streamBytes), tx)
	v["repl.lag_lsn_p99"] = quantile(ph.lagLSN, 0.99)
	v["repl.resyncs"] = ph.resyncs
	v["runtime.alloc_kb_per_tx"] = ratio(ph.rt.allocBytes, tx) / 1024
	v["runtime.gc_cpu_pct"] = 100 * ratio(ph.rt.gcCPU, ph.rt.totalCPU)
	v["obs.trace_overhead_pct"] = 100 * (ratio(ph.fig.writeMean, base.fig.writeMean) - 1)
	v["loadgen.late_p99_ms"] = ph.fig.lateP99 * 1e3
	v["loadgen.failed_ratio"] = ratio(float64(ph.failed), float64(ph.attempted))
	return ph.newReport(perLayer, v)
}
