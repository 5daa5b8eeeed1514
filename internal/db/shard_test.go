package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/tuple"
)

// buildShardFleet creates R(A,B), S(B,C) and a mix of views chosen to
// cover every shard-eligibility path: a single-operand selection
// (always fans out when R changes), a join (fans out only when one
// side changed), a self-join (never fans out), a deferred join, and an
// adaptive filtered selection.
func buildShardFleet(t *testing.T, opts ...Option) (*Engine, []expr.View) {
	t.Helper()
	e := New(opts...)
	if err := e.CreateRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateRelation("S", "B", "C"); err != nil {
		t.Fatal(err)
	}
	join, err := expr.NaturalJoin("join", e.Scheme(), "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	dfr, err := expr.NaturalJoin("dfr", e.Scheme(), "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	defs := []expr.View{
		{Name: "sel", Operands: []expr.Operand{{Rel: "R"}}, Where: pred.MustParse("R.A <= 20")},
		join,
		{Name: "self", Operands: []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}},
			Where: pred.MustParse("x.B = y.A")},
		dfr,
		{Name: "filt", Operands: []expr.Operand{{Rel: "R"}}, Where: pred.MustParse("R.A < 15")},
	}
	cfgs := []ViewConfig{
		{},
		{},
		{},
		{Mode: Deferred},
		{Policy: PolicyAdaptive, Maint: diffeval.Options{Filter: true}},
	}
	for i, v := range defs {
		if err := e.CreateView(v, cfgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return e, defs
}

// churn appends n inserts/deletes for rel to tx, keeping *live the set
// of tuples present so the stream never duplicates an insert or
// deletes an absent tuple.
func churn(tx *delta.Tx, rel string, live *[]tuple.Tuple, rng *rand.Rand, n, aMax, bMax int) {
	seen := make(map[string]bool)
	for ; n > 0; n-- {
		if len(*live) > 0 && rng.Intn(10) < 4 {
			i := rng.Intn(len(*live))
			tu := (*live)[i]
			if seen[tu.Key()] {
				continue
			}
			seen[tu.Key()] = true
			tx.Delete(rel, tu)
			*live = append((*live)[:i], (*live)[i+1:]...)
			continue
		}
		tu := tuple.New(int64(rng.Intn(aMax)), int64(rng.Intn(bMax)))
		dup := seen[tu.Key()]
		for _, x := range *live {
			if x.Key() == tu.Key() {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[tu.Key()] = true
		tx.Insert(rel, tu)
		*live = append(*live, tu)
	}
}

// genShardTxs builds one serial transaction stream over R and S: most
// transactions touch only R (join views fan out on one operand), some
// touch both (multi-operand fallback).
func genShardTxs(rounds int, seed int64) []*delta.Tx {
	rng := rand.New(rand.NewSource(seed))
	var liveR, liveS []tuple.Tuple
	var txs []*delta.Tx
	for r := 0; r < rounds; r++ {
		tx := &delta.Tx{}
		churn(tx, "R", &liveR, rng, 1+rng.Intn(4), 40, 6)
		if rng.Intn(3) == 0 {
			churn(tx, "S", &liveS, rng, 1+rng.Intn(2), 6, 12)
		}
		if tx.Len() > 0 {
			txs = append(txs, tx)
		}
	}
	return txs
}

// semanticStats is the subset of ViewStats that must be identical
// across shard counts. The work-shape counters (RowsEvaluated,
// JoinSteps, FilterChecked/FilteredOut, ShardTasks, ShardsPruned)
// legitimately differ: sharding changes how the work is done, not what
// it computes.
func semanticStats(s ViewStats) [6]int {
	return [6]int{s.Transactions, s.Refreshes, s.Recomputes, s.DeltaInserts, s.DeltaDeletes, s.PendingTx}
}

func compareShardedToOracle(t *testing.T, label string, got, want *Engine, defs []expr.View) {
	t.Helper()
	for _, rel := range []string{"R", "S"} {
		rg, _ := got.Relation(rel)
		ro, _ := want.Relation(rel)
		if !rg.Equal(ro) {
			t.Errorf("%s: relation %s diverged:\n got: %v\n want: %v", label, rel, rg, ro)
		}
	}
	for _, v := range defs {
		sg, _ := got.ViewStats(v.Name)
		so, _ := want.ViewStats(v.Name)
		if semanticStats(sg) != semanticStats(so) {
			t.Errorf("%s: view %s semantic stats = %v, oracle %v", label, v.Name, semanticStats(sg), semanticStats(so))
		}
	}
	if err := got.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := want.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for _, v := range defs {
		vg, _ := got.View(v.Name)
		vo, _ := want.View(v.Name)
		if !vg.Equal(vo) {
			t.Errorf("%s: view %s diverged:\n got: %v\n want: %v", label, v.Name, vg, vo)
		}
		rec, err := got.Query(v, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !vg.Equal(rec) {
			t.Errorf("%s: view %s diverged from recompute oracle:\n view: %v\n oracle: %v", label, v.Name, vg, rec)
		}
	}
}

// TestShardedMatchesUnshardedOracle replays one randomized churn
// stream on an unsharded engine and on engines at 2/4/8 shards: base
// relations, view contents (including a full-recompute cross-check),
// and the semantic stat counters must be identical. Run with -race.
func TestShardedMatchesUnshardedOracle(t *testing.T) {
	txs := genShardTxs(120, 42)
	var defs []expr.View
	var oracle *Engine
	for _, n := range []int{2, 4, 8} {
		// Fresh oracle per shard count: the comparison's RefreshAll
		// mutates it, so it cannot be shared across iterations.
		oracle, defs = buildShardFleet(t)
		for _, tx := range txs {
			if _, err := oracle.Execute(tx); err != nil {
				t.Fatal(err)
			}
		}
		e, _ := buildShardFleet(t, WithShards(n))
		if e.Shards() != n {
			t.Fatalf("Shards() = %d, want %d", e.Shards(), n)
		}
		for _, tx := range txs {
			if _, err := e.Execute(tx); err != nil {
				t.Fatal(err)
			}
		}
		compareShardedToOracle(t, fmt.Sprintf("shards=%d", n), e, oracle, defs)

		// Eligibility paths: the single-operand selection must have
		// fanned out; the self-join must never fan out.
		if st, _ := e.ViewStats("sel"); st.ShardTasks == 0 {
			t.Errorf("shards=%d: view sel never fanned out (ShardTasks = 0)", n)
		}
		if st, _ := e.ViewStats("self"); st.ShardTasks != 0 {
			t.Errorf("shards=%d: self-join fanned out (ShardTasks = %d), must run unsharded", n, st.ShardTasks)
		}
	}
	// The unsharded engine must not report shard work.
	for _, v := range defs {
		if st, _ := oracle.ViewStats(v.Name); st.ShardTasks != 0 || st.ShardsPruned != 0 {
			t.Errorf("unsharded view %s reports shard counters: tasks=%d pruned=%d",
				v.Name, st.ShardTasks, st.ShardsPruned)
		}
	}
}

// TestShardedGroupCommitMatchesSerialOracle runs the concurrent
// group-commit fleet on a sharded engine against an unsharded serial
// oracle: sharding must compose with batch composition. Run with
// -race.
func TestShardedGroupCommitMatchesSerialOracle(t *testing.T) {
	const writers, rounds = 8, 40
	grp, defs := buildGroupFleet(t, writers, WithShards(4))
	oracle, _ := buildGroupFleet(t, writers)
	grp.EnableGroupCommit(writers, 2*time.Millisecond)
	defer grp.DisableGroupCommit()

	streams := genStreams(writers, rounds)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, tx := range streams[w] {
				if _, err := grp.Execute(tx); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for _, tx := range streams[w] {
			if _, err := oracle.Execute(tx); err != nil {
				t.Fatalf("oracle writer %d: %v", w, err)
			}
		}
	}

	for w := 0; w < writers; w++ {
		rel := fmt.Sprintf("R%d", w)
		rg, _ := grp.Relation(rel)
		ro, _ := oracle.Relation(rel)
		if !rg.Equal(ro) {
			t.Errorf("%s diverged:\n sharded: %v\n oracle: %v", rel, rg, ro)
		}
	}
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("v%d", w)
		sg, _ := grp.ViewStats(name)
		so, _ := oracle.ViewStats(name)
		if sg.Transactions != so.Transactions {
			t.Errorf("%s Transactions = %d, oracle %d", name, sg.Transactions, so.Transactions)
		}
		if sg.PendingTx != so.PendingTx {
			t.Errorf("%s PendingTx = %d, oracle %d", name, sg.PendingTx, so.PendingTx)
		}
	}
	if err := grp.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	var fanned int
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("v%d", w)
		vg, _ := grp.View(name)
		vo, _ := oracle.View(name)
		if !vg.Equal(vo) {
			t.Errorf("%s diverged:\n sharded: %v\n oracle: %v", name, vg, vo)
		}
		rec, err := grp.Query(defs[w], eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !vg.Equal(rec) {
			t.Errorf("%s diverged from recompute oracle", name)
		}
		st, _ := grp.ViewStats(name)
		fanned += st.ShardTasks
	}
	if fanned == 0 {
		t.Error("no view fanned out under group commit (ShardTasks all 0)")
	}
}

// TestShardPruning pins the §4 key-range prune: a view over keys
// >= 1000 must skip every shard of a delta whose keys all fall below,
// install an empty delta while still counting the refresh, and stay
// exact when a later delta mixes relevant and irrelevant keys.
func TestShardPruning(t *testing.T) {
	e := New(WithShards(8))
	if err := e.CreateRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	hot := expr.View{
		Name:     "hot",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("R.A >= 1000"),
	}
	if err := e.CreateView(hot, ViewConfig{}); err != nil {
		t.Fatal(err)
	}

	var cold delta.Tx
	for i := 0; i < 64; i++ {
		cold.Insert("R", tuple.New(int64(i), int64(i%7)))
	}
	exec(t, e, &cold)
	st, _ := e.ViewStats("hot")
	if st.ShardsPruned == 0 {
		t.Errorf("all-cold delta: ShardsPruned = 0, want > 0")
	}
	if st.ShardTasks != 0 {
		t.Errorf("all-cold delta: ShardTasks = %d, want 0 (every shard pruned)", st.ShardTasks)
	}
	if st.Refreshes != 1 {
		t.Errorf("all-cold delta: Refreshes = %d, want 1 (empty delta still refreshes)", st.Refreshes)
	}
	if v, _ := e.View("hot"); v.Len() != 0 {
		t.Errorf("view not empty after all-cold delta: %v", v)
	}

	var mixed delta.Tx
	for i := 64; i < 96; i++ {
		mixed.Insert("R", tuple.New(int64(i), int64(i%7)))
	}
	for i := 0; i < 4; i++ {
		mixed.Insert("R", tuple.New(int64(1000+i), int64(i)))
	}
	exec(t, e, &mixed)
	st, _ = e.ViewStats("hot")
	if st.ShardTasks == 0 {
		t.Error("mixed delta: ShardTasks = 0, want surviving shards to fan out")
	}
	v, _ := e.View("hot")
	if v.Len() != 4 {
		t.Errorf("view has %d tuples after mixed delta, want 4: %v", v.Len(), v)
	}
	rec, err := e.Query(hot, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(rec) {
		t.Errorf("view diverged from recompute after pruning:\n view: %v\n oracle: %v", v, rec)
	}

	if ex, _ := e.Explain("hot"); !strings.Contains(ex, "hash shards") {
		t.Errorf("Explain lacks shard line:\n%s", ex)
	}
}

// TestExplainShardLine pins the unsharded wording too.
func TestExplainShardLine(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	ex, err := e.Explain("v")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "monolithic") {
		t.Errorf("unsharded Explain lacks shard line:\n%s", ex)
	}
}

// TestShardedSaveLoadReShards pins that the snapshot format is
// shard-independent: a sharded engine's Save loads into any shard
// count with identical contents.
func TestShardedSaveLoadReShards(t *testing.T) {
	e, defs := buildShardFleet(t, WithShards(4))
	for _, tx := range genShardTxs(40, 7) {
		if _, err := e.Execute(tx); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{nil, {WithShards(8)}} {
		l, err := Load(bytes.NewReader(buf.Bytes()), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range []string{"R", "S"} {
			rg, _ := l.Relation(rel)
			ro, _ := e.Relation(rel)
			if !rg.Equal(ro) {
				t.Errorf("relation %s diverged after reload", rel)
			}
		}
		if err := l.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		if err := e.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		for _, v := range defs {
			vg, _ := l.View(v.Name)
			vo, _ := e.View(v.Name)
			if !vg.Equal(vo) {
				t.Errorf("view %s diverged after reload", v.Name)
			}
		}
	}
}
