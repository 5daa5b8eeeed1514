package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"mview"
)

// tinyWorkloads are the three workloads at a size that runs in seconds.
func tinyWorkloads() map[string]setupFunc {
	ing := ingestParams{Orders: 2000, Customers: 50, Regions: 10, Amounts: 1000, Clients: 2, ReadShare: 0.4, WarmupTx: 20, TailTx: 20, RecoverReps: 1, LoadBatch: 500}
	fan := fanoutParams{Rows: 500, SRows: 50, SelectViews: 4, JoinViews: 2, Band: 32, BC: 50, D: 100,
		TxChurn: 4, LoadReps: 1, ReadShare: 0.2}
	rep := replicaParams{Rows: 300, A: 1000, Bound: 100, Rate: 200, RecoverReps: 1}
	return map[string]setupFunc{"ingest": setupIngest(ing), "fanout": setupFanout(fan), "replica": setupReplica(rep)}
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny
// size: the correctness gates must pass, and every end-to-end and
// per-layer metric must be reported with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	for name, setup := range tinyWorkloads() {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				dir := t.TempDir()
				e := &env{name: name, seed: 7, seconds: 0.6, trace: traced, workDir: dir, outDir: dir, logf: t.Logf}
				rep, err := execute(e, setup)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if len(rep.gateErrs) > 0 {
					t.Fatalf("trace=%v: gates failed: %v", traced, rep.gateErrs)
				}
				if rep.attempted < 1 || rep.failed != 0 {
					t.Fatalf("trace=%v: attempted %d, failed %d", traced, rep.attempted, rep.failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
					if len(rep.spanFiles) == 0 {
						t.Fatalf("traced run wrote no span dump")
					}
				}
				if len(rep.metrics) != len(defs) {
					t.Fatalf("trace=%v: %d metrics, want %d", traced, len(rep.metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := rep.metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Fatalf("trace=%v: metric %s missing or with unit %q", traced, m.name, got.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if traced && rep.metrics["repl.resyncs"].Value != 0 {
					t.Errorf("repl.resyncs = %v", rep.metrics["repl.resyncs"].Value)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own metric
// and workload tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, m := range c.defs {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, program %s/%s", i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestOracleGateCatchesDivergence proves the gate fails on a view that
// differs from its re-evaluation.
func TestOracleGateCatchesDivergence(t *testing.T) {
	db := mview.Open()
	if err := db.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(mview.Insert("r", 1, 2), mview.Insert("r", 5, 6)); err != nil {
		t.Fatal(err)
	}
	views := []viewDef{{name: "v", spec: mview.ViewSpec{From: []string{"r"}, Where: "A < 3"}}}
	if err := createViews(db, views); err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(db, views); err != nil {
		t.Fatalf("consistent view failed the gate: %v", err)
	}
	wrong := []viewDef{{name: "v", spec: mview.ViewSpec{From: []string{"r"}, Where: "A < 9"}}}
	if err := checkOracle(db, wrong); err == nil {
		t.Fatal("gate passed a view that differs from its spec's evaluation")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := &spanRec{start: ms(0), end: ms(10)}
	kids := []*spanRec{
		{start: ms(1), end: ms(4)},
		{start: ms(2), end: ms(5)},  // overlaps the first: parallel work counts once
		{start: ms(7), end: ms(12)}, // clipped at the parent's end
	}
	if got := coveredBy(root, kids); got != ms(7) {
		t.Fatalf("covered %v, want 7ms", got)
	}
}

func TestWindowedDropsDisturbedWindow(t *testing.T) {
	var s samples
	for w := 0; w < windows; w++ {
		v := 1.0
		if w == 2 {
			v = 100 // one disturbed window
		}
		for i := 0; i < 10; i++ {
			s = append(s, sample{at: float64(w) + 0.05*float64(i), v: v})
		}
	}
	if got := s.windowedQuantile(windows, 0.99); got != 1 {
		t.Fatalf("windowed p99 %v, want 1", got)
	}
	if got := s.windowedRate(windows); got != 10 {
		t.Fatalf("windowed rate %v, want 10", got)
	}
}
