package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/obs"
)

// maxDumpSpans caps the spans kept for the dump; the per-name totals
// cover every span regardless.
const maxDumpSpans = 50_000

// recorders are the traced run's span sinks, one per database so span
// identifiers of the leader and a follower never mix.
type recorders struct {
	leader, follower *spanRecorder
}

func newRecorders() *recorders {
	epoch := time.Now()
	return &recorders{leader: newSpanRecorder("leader", epoch), follower: newSpanRecorder("follower", epoch)}
}

// spanRecorder implements obs.HierarchicalTracer. It keeps finished
// spans in memory, grouped by trace until the trace's root ends; then
// it computes each span's self time — its duration minus the part of it
// its children cover — and folds the trace into per-name totals.
type spanRecorder struct {
	db    string
	epoch time.Time
	flat  atomic.Uint64 // identifiers for spans started without a trace

	mu      sync.Mutex
	open    map[uint64][]*spanRec // finished spans of traces whose root is still running
	byName  map[string]*spanTotal
	kept    []*spanRec
	dropped int
}

type spanRec struct {
	Trace  uint64         `json:"trace,omitempty"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_us"`
	Dur    float64        `json:"dur_us"`
	Self   float64        `json:"self_us"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	kv     []obs.KV
	start  time.Duration
	end    time.Duration
}

type spanTotal struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Total float64 `json:"total_us"`
	Self  float64 `json:"self_us"`
}

func newSpanRecorder(db string, epoch time.Time) *spanRecorder {
	return &spanRecorder{db: db, epoch: epoch, open: map[uint64][]*spanRec{}, byName: map[string]*spanTotal{}}
}

type liveSpan struct {
	r   *spanRecorder
	rec *spanRec
}

func (s liveSpan) End(kv ...obs.KV) {
	s.rec.end = time.Since(s.r.epoch)
	s.rec.kv = append(s.rec.kv, kv...)
	s.r.finish(s.rec)
}

// Start implements obs.Tracer: a span with no trace identity, which is
// its own one-span tree.
func (r *spanRecorder) Start(name string, kv ...obs.KV) obs.Span {
	return liveSpan{r, &spanRec{ID: r.flat.Add(1), Name: name, kv: append([]obs.KV(nil), kv...), start: time.Since(r.epoch)}}
}

// Event implements obs.Tracer; point events are not recorded.
func (r *spanRecorder) Event(string, ...obs.KV) {}

// StartSpan implements obs.HierarchicalTracer.
func (r *spanRecorder) StartSpan(ctx, parent obs.SpanContext, name string, kv ...obs.KV) obs.Span {
	return liveSpan{r, &spanRec{Trace: ctx.Trace, ID: ctx.Span, Parent: parent.Span, Name: name,
		kv: append([]obs.KV(nil), kv...), start: time.Since(r.epoch)}}
}

func (r *spanRecorder) finish(s *spanRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Trace == 0 {
		r.fold([]*spanRec{s})
		return
	}
	r.open[s.Trace] = append(r.open[s.Trace], s)
	if s.Parent == 0 {
		r.fold(r.open[s.Trace])
		delete(r.open, s.Trace)
	}
}

// fold computes self times for one trace's spans and adds them to the
// totals. Callers hold r.mu.
func (r *spanRecorder) fold(spans []*spanRec) {
	children := map[uint64][]*spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		covered := coveredBy(s, children[s.ID])
		t := r.byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			r.byName[s.Name] = t
		}
		dur := float64(s.end-s.start) / 1e3
		s.Start, s.Dur, s.Self = float64(s.start)/1e3, dur, dur-float64(covered)/1e3
		t.Count++
		t.Total += s.Dur
		t.Self += s.Self
		if len(r.kept) < maxDumpSpans {
			r.kept = append(r.kept, s)
		} else {
			r.dropped++
		}
	}
}

// coveredBy is how much of s's interval the union of its children's
// intervals covers; parallel children overlap and count once.
func coveredBy(s *spanRec, kids []*spanRec) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b <= a {
			continue
		}
		if a > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = a, b
		} else if b > hi {
			hi = b
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// total is the summed duration of every finished span with the name;
// 0 on a nil recorder (an untraced run).
func (r *spanRecorder) total(name string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.byName[name]; t != nil {
		return time.Duration(t.Total * 1e3)
	}
	return 0
}

// flush folds spans whose root never ended, so every span is counted.
func (r *spanRecorder) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, spans := range r.open {
		r.fold(spans)
		delete(r.open, id)
	}
}

// dump writes each recorder's spans as JSON lines and its per-name
// totals as one JSON document, and returns the files written.
func (rs *recorders) dump(e *env) ([]string, error) {
	dir := filepath.Join(e.outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for _, r := range []*spanRecorder{rs.leader, rs.follower} {
		r.flush()
		r.mu.Lock()
		kept, dropped := r.kept, r.dropped
		totals := make([]*spanTotal, 0, len(r.byName))
		for _, t := range r.byName {
			totals = append(totals, t)
		}
		r.mu.Unlock()
		if len(kept) == 0 {
			continue
		}
		sort.Slice(totals, func(i, j int) bool { return totals[i].Self > totals[j].Self })
		base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", e.name, e.seed, r.db))
		if err := writeSpans(base+".spans.jsonl", kept); err != nil {
			return nil, err
		}
		sum, err := json.MarshalIndent(map[string]any{"db": r.db, "spans_kept": len(kept), "spans_dropped": dropped, "by_name": totals}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(base+".summary.json", sum, 0o644); err != nil {
			return nil, err
		}
		files = append(files, base+".spans.jsonl", base+".summary.json")
	}
	return files, nil
}

func writeSpans(path string, spans []*spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if len(s.kv) > 0 {
			s.Attrs = make(map[string]any, len(s.kv))
			for _, kv := range s.kv {
				s.Attrs[kv.K] = fmt.Sprint(kv.V)
			}
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
