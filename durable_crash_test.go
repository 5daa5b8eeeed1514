package mview

// Checkpoint fault injection: kill the checkpoint at every step and
// prove that reopening the directory recovers every committed
// transaction. Run directly via `make crash`; also part of the
// regular test suite.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mview/internal/obs"
	"mview/internal/repl"
	"mview/internal/wal"
)

// TestCheckpointCrashConsistency simulates the process dying at each
// checkpoint step — after the segment writes, after the manifest tmp
// write, after the manifest rename (before the directory fsync), after
// the directory fsync (before the old segments are deleted), after the
// segment deletes, and after a complete checkpoint — and asserts that
// no committed transaction is lost and no tmp file or orphan segment
// survives recovery.
func TestCheckpointCrashConsistency(t *testing.T) {
	for _, step := range []string{"segment-write", "manifest-tmp", "rename", "dirsync", "segment-delete", "complete"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			d := openDur(t, dir)
			seedDurable(t, d)
			// A second committed transaction the checkpoint must not
			// lose: r(8,10) joins s(10,20), so the view gains a row.
			if _, err := d.Exec(Insert("r", 8, 10)); err != nil {
				t.Fatal(err)
			}
			if step != "complete" {
				checkpointHook = func(s string) error {
					if s == step {
						return errSimulatedCrash
					}
					return nil
				}
				defer func() { checkpointHook = nil }()
			}
			err := d.Checkpoint()
			checkpointHook = nil
			want := 2
			if step == "complete" {
				if err != nil {
					t.Fatal(err)
				}
				// One more commit after the checkpoint, recovered from
				// the truncated log: s(10,30) joins both r rows.
				if _, err := d.Exec(Insert("s", 10, 30)); err != nil {
					t.Fatal(err)
				}
				want = 4
			} else if !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("Checkpoint killed at %q: err = %v, want simulated crash", step, err)
			}

			// The process dies here: no Close, no further flushing.
			d2 := openDur(t, dir)
			defer d2.Close()
			rows, err := d2.View("v")
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != want {
				t.Fatalf("crash at %q: recovered view has %d rows, want %d: %+v",
					step, len(rows), want, rows)
			}
			assertNoCheckpointDebris(t, dir)

			// The recovered database keeps committing and checkpointing.
			if _, err := d2.Exec(Insert("r", 7, 10)); err != nil {
				t.Fatal(err)
			}
			if err := d2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// assertNoCheckpointDebris fails if the directory holds a manifest tmp
// file, a legacy snapshot tmp, or a checkpoint segment the current
// manifest does not reference.
func assertNoCheckpointDebris(t *testing.T, dir string) {
	t.Helper()
	for _, tmp := range []string{manifestFile + ".tmp", snapshotFile + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived (stat err = %v)", tmp, err)
		}
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var referenced map[string]bool
	if man != nil {
		referenced = man.files()
	}
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range matches {
		if !referenced[filepath.Base(p)] {
			t.Errorf("orphan checkpoint segment %s survived", filepath.Base(p))
		}
	}
}

// TestCheckpointFaultCleansTmp: a checkpoint that fails for an
// ordinary reason (not a crash) must remove every file it wrote —
// segments and manifest tmp — restore its dirty bits, and leave the
// database fully usable.
func TestCheckpointFaultCleansTmp(t *testing.T) {
	for _, step := range []string{"segment-write", "manifest-tmp"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			d := openDur(t, dir)
			seedDurable(t, d)
			bad := errors.New("injected checkpoint failure")
			checkpointHook = func(s string) error {
				if s == step {
					return bad
				}
				return nil
			}
			err := d.Checkpoint()
			checkpointHook = nil
			if !errors.Is(err, bad) {
				t.Fatalf("Checkpoint err = %v, want injected failure", err)
			}
			assertNoCheckpointDebris(t, dir)
			// The restored dirty bits make the retry write everything the
			// failed run was responsible for.
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2 := openDur(t, dir)
			defer d2.Close()
			verifySeeded(t, d2)
		})
	}
}

// TestSingleAppendFailureRecovery injects an IO failure into a single
// (non-batched) log append: the Exec must report the error, the log
// must roll back to its pre-write state, and — the regression this
// pins — a later successful append must be fully recovered on reopen
// rather than shadowed by leftover bytes of the failed write.
func TestSingleAppendFailureRecovery(t *testing.T) {
	for _, stage := range []string{"written", "synced"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			d := openDur(t, dir)
			seedDurable(t, d)
			fail := errors.New("injected append failure")
			wal.AppendHook = func(s string) error {
				if s == stage {
					return fail
				}
				return nil
			}
			_, err := d.Exec(Insert("r", 8, 10))
			wal.AppendHook = nil
			if !errors.Is(err, fail) {
				t.Fatalf("Exec err = %v, want injected failure", err)
			}
			// The next append lands where the failed one was rolled back
			// from and must be recovered intact.
			if _, err := d.Exec(Insert("r", 7, 10)); err != nil {
				t.Fatal(err)
			}
			_ = d.Close()
			d2 := openDur(t, dir)
			defer d2.Close()
			rows, err := d2.Rows("r")
			if err != nil {
				t.Fatal(err)
			}
			// Seed row plus the acknowledged insert; the failed one was
			// never logged, and never visible either (log-before-visible).
			want := map[int64]bool{9: true, 7: true}
			if len(rows) != 2 || !want[rows[0][0]] || !want[rows[1][0]] {
				t.Fatalf("recovered r = %v, want rows keyed 9 and 7", rows)
			}
			vrows, err := d2.View("v")
			if err != nil {
				t.Fatal(err)
			}
			if len(vrows) != 2 {
				t.Fatalf("recovered view = %+v, want 2 rows", vrows)
			}
		})
	}
}

// TestGroupCrashMidBatch kills the process (via wal.AppendHook)
// after a commit group's records hit the log but before the append is
// acknowledged, then recovers from every byte-level cut of the doomed
// batch. Each group member writes one r row AND one s row in a single
// transaction, so any recovery that split a transaction would surface
// as an r row without its s mate. The invariant: recovery yields a
// whole-transaction prefix of the group — all of a member's effects or
// none of them.
func TestGroupCrashMidBatch(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir)
	seedDurable(t, d)

	walPath := filepath.Join(dir, logFile+".1") // the active segment
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Encode a four-member group exactly as the scheduler's leader
	// would: one statement payload per transaction, appended through
	// logPayloadBatch (one framed write, one fsync).
	const groupSize = 4
	payloads := make([][]byte, groupSize)
	for i := range payloads {
		p, err := encodeStmt(walStmt{Kind: "tx", Ops: []walOp{
			{Rel: "r", Vals: []int64{int64(i), 10}},
			{Rel: "s", Vals: []int64{10, int64(100 + i)}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = p
	}

	wal.AppendHook = func(stage string) error {
		if stage == "synced" {
			return errSimulatedCrash
		}
		return nil
	}
	err = d.logPayloadBatch(payloads)
	wal.AppendHook = nil
	if !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("logPayloadBatch err = %v, want simulated crash", err)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("doomed batch left no bytes in the log (%d <= %d)", len(after), len(before))
	}

	// The process dies here. Recover from every possible torn tail.
	prevK := -1
	for cut := len(before); cut <= len(after); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, logFile+".1"), after[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDurable(dir2)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		rrows, err := d2.Rows("r")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		srows, err := d2.Rows("s")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// k = recovered group members; the seed contributes one row to
		// each base. Members must form a prefix, each one whole.
		k := len(rrows) - 1
		if len(srows)-1 != k {
			t.Fatalf("cut %d: recovered %d r rows but %d s rows — a transaction was split",
				cut, len(rrows)-1, len(srows)-1)
		}
		if k < prevK {
			t.Fatalf("cut %d: recovered %d members, previous cut had %d", cut, k, prevK)
		}
		prevK = k
		have := make(map[int64]bool)
		for _, row := range rrows {
			if row[1] == 10 && row[0] < groupSize {
				have[row[0]] = true
			}
		}
		for i := 0; i < groupSize; i++ {
			if have[int64(i)] != (i < k) {
				t.Fatalf("cut %d: member %d present=%v, want prefix of length %d",
					cut, i, have[int64(i)], k)
			}
		}
		// The recovered view must equal its recompute: (1+k) r rows
		// joining (1+k) s rows on B = C = 10.
		rows, err := d2.View("v")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if want := (1 + k) * (1 + k); len(rows) != want {
			t.Fatalf("cut %d: recovered view has %d rows, want %d (k=%d)", cut, len(rows), want, k)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if prevK != groupSize {
		t.Fatalf("full batch recovered only %d of %d members", prevK, groupSize)
	}
}

// TestGroupCommitCrashNeverAcksLostTx drives the real Exec group path
// into a log failure: every grouped transaction must be reported
// failed (log-before-visible), the live engine must stay untouched,
// and a recovery of the directory may surface a whole-transaction
// prefix of the doomed group but never an inconsistent state.
func TestGroupCommitCrashNeverAcksLostTx(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, WithGroupCommit(8, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	seedDurable(t, d)

	walPath := filepath.Join(dir, logFile+".1") // the active segment
	// The hook fires on every append attempt (the process is "dead"
	// after the first), and records the log size at the first failure:
	// bytes past that mark were written by retries that a real crash
	// would never have run.
	var firstLen atomic.Int64
	firstLen.Store(-1)
	wal.AppendHook = func(stage string) error {
		if stage != "written" {
			return nil
		}
		if fi, err := os.Stat(walPath); err == nil {
			firstLen.CompareAndSwap(-1, fi.Size())
		}
		return errSimulatedCrash
	}
	defer func() { wal.AppendHook = nil }()

	const writers = 6
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := d.Exec(Insert("r", int64(i), 10)); err == nil {
				t.Errorf("writer %d: Exec acked a transaction the log never accepted", i)
			}
		}(i)
	}
	wg.Wait()
	wal.AppendHook = nil

	// Log-before-visible: none of the failed transactions may have
	// reached the live engine.
	verifySeeded(t, d)

	// Simulate the crash at the first failed append: discard retry
	// bytes, reopen, and check the recovered state is consistent. The
	// unacked transactions may legitimately be durable (crash landed
	// between write and ack) — what is forbidden is a torn one.
	if n := firstLen.Load(); n < 0 {
		t.Fatal("hook never fired")
	} else if err := os.Truncate(walPath, n); err != nil {
		t.Fatal(err)
	}
	d2 := openDur(t, dir)
	defer d2.Close()
	rrows, err := d2.Rows("r")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := d2.View("v")
	if err != nil {
		t.Fatal(err)
	}
	// Seed: one r row, one s row, one view row. Each recovered member
	// adds one r row joining the single s row.
	if len(rows) != len(rrows) {
		t.Fatalf("recovered view has %d rows for %d r rows — view inconsistent with bases",
			len(rows), len(rrows))
	}
	if len(rrows)-1 > writers {
		t.Fatalf("recovered %d members from %d writers", len(rrows)-1, writers)
	}
}

// visibleState is everything a reader can observe of a database: the
// catalog, every base relation and view, and every view's policy
// (minus the staleness clock, which moves on its own).
type visibleState struct {
	Relations, Views []string
	Rows             map[string][][]int64
	ViewRows         map[string][]Row
	Policies         map[string]PolicyInfo
}

func captureState(t *testing.T, d *DB) visibleState {
	t.Helper()
	s := visibleState{
		Relations: d.Relations(),
		Views:     d.Views(),
		Rows:      make(map[string][][]int64),
		ViewRows:  make(map[string][]Row),
		Policies:  make(map[string]PolicyInfo),
	}
	for _, rel := range s.Relations {
		rows, err := d.Rows(rel)
		if err != nil {
			t.Fatal(err)
		}
		s.Rows[rel] = rows
	}
	for _, v := range s.Views {
		rows, err := d.View(v)
		if err != nil {
			t.Fatal(err)
		}
		s.ViewRows[v] = rows
		p, err := d.Policy(v)
		if err != nil {
			t.Fatal(err)
		}
		p.Staleness = 0
		s.Policies[v] = p
	}
	return s
}

// durable drops the contents of deferred views: a replica bootstrap or
// a reopen re-materializes them fresh, so only their definitions and
// policies carry across databases.
func (s visibleState) durable() visibleState {
	rows := make(map[string][]Row, len(s.ViewRows))
	for v, r := range s.ViewRows {
		if s.Policies[v].Immediate {
			rows[v] = r
		}
	}
	s.ViewRows = rows
	return s
}

// TestFailedAppendLeavesNoTrace: a statement whose commit-log append
// fails — at the write or at the fsync — returns the error and leaves
// no visible trace: no relation, view, catalog, or policy change, no
// subscriber callback, no replicated record. Every statement kind is
// covered, with group commit off and on. Retrying the statement then
// succeeds, replicates, and survives a reopen.
func TestFailedAppendLeavesNoTrace(t *testing.T) {
	stmts := []struct {
		name string
		run  func(d *DB) error
	}{
		{"exec", func(d *DB) error { _, err := d.Exec(Insert("r", 8, 10)); return err }},
		{"create-relation", func(d *DB) error { return d.CreateRelation("t", "E", "F") }},
		{"create-view", func(d *DB) error { return d.CreateView("w", ViewSpec{From: []string{"r"}, Where: "A < 5"}) }},
		{"create-join-view", func(d *DB) error { return d.CreateJoinView("j", []string{"r", "s"}) }},
		{"drop-view", func(d *DB) error { return d.DropView("dv") }},
		// dv is deferred with a backlog, so moving it to OnCommit drains
		// the backlog and would notify dv's subscriber.
		{"set-policy", func(d *DB) error { return d.SetPolicy("dv", OnCommit()) }},
	}
	for _, st := range stmts {
		for _, mode := range []string{"serial", "group"} {
			for _, stage := range []string{"written", "synced"} {
				t.Run(st.name+"/"+mode+"/"+stage, func(t *testing.T) {
					dir := t.TempDir()
					reg := obs.NewRegistry()
					opts := []Option{WithObs(reg, nil)}
					if mode == "group" {
						opts = append(opts, WithGroupCommit(8, 0))
					}
					d, err := OpenDurable(dir, opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer d.Close()
					seedDurable(t, d)
					if err := d.CreateView("dv", ViewSpec{From: []string{"r"}}, OnDemand()); err != nil {
						t.Fatal(err)
					}
					if _, err := d.Exec(Insert("r", 1, 1)); err != nil {
						t.Fatal(err)
					}

					srv, err := d.ReplicationServer()
					if err != nil {
						t.Fatal(err)
					}
					srv.Poll = 200 * time.Microsecond
					srv.Heartbeat = 2 * time.Millisecond
					f, err := openFollowerTransport(repl.LocalTransport{S: srv}, "f")
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()
					preLSN := srv.LeaderLSN()
					waitReplicated(t, f, preLSN)

					var fired atomic.Int64
					for _, db := range []*DB{d, f} {
						for _, v := range []string{"v", "dv"} {
							cancel, err := db.Subscribe(v, func(Change) { fired.Add(1) })
							if err != nil {
								t.Fatal(err)
							}
							defer cancel()
						}
					}
					before, fBefore := captureState(t, d), captureState(t, f)

					fail := errors.New("injected append failure")
					wal.AppendHook = func(s string) error {
						if s == stage {
							return fail
						}
						return nil
					}
					err = st.run(d)
					wal.AppendHook = nil
					failedAt := time.Now()
					if !errors.Is(err, fail) {
						t.Fatalf("statement err = %v, want injected failure", err)
					}
					if got := captureState(t, d); !reflect.DeepEqual(got, before) {
						t.Fatalf("failed statement left a visible trace:\nbefore %+v\nafter  %+v", before, got)
					}
					if n := reg.Counter("mview_wal_append_errors_total", "", nil).Value(); n != 1 {
						t.Errorf("mview_wal_append_errors_total = %d, want 1", n)
					}

					// Let a stream frame sent after the failure arrive: the
					// leader's durable position must not have moved, and the
					// follower must hold exactly what it held before.
					deadline := time.Now().Add(5 * time.Second)
					for {
						fs, _ := f.FollowerStatus()
						if fs.LastContact < time.Since(failedAt).Seconds() {
							if fs.LeaderLSN != preLSN || fs.AppliedLSN != preLSN {
								t.Fatalf("follower saw leader LSN %d, applied %d after the failure; want %d", fs.LeaderLSN, fs.AppliedLSN, preLSN)
							}
							break
						}
						if time.Now().After(deadline) {
							t.Fatal("no stream frame reached the follower after the failure")
						}
						time.Sleep(time.Millisecond)
					}
					if got := captureState(t, f); !reflect.DeepEqual(got, fBefore) {
						t.Fatalf("follower observed the failed statement:\nbefore %+v\nafter  %+v", fBefore, got)
					}
					if n := fired.Load(); n != 0 {
						t.Fatalf("%d subscriber callbacks fired for a failed statement", n)
					}

					// The retry commits, replicates in order (one record past
					// the pre-failure position, no re-sync), and survives reopen.
					if err := st.run(d); err != nil {
						t.Fatalf("retry: %v", err)
					}
					after := captureState(t, d)
					if reflect.DeepEqual(after, before) {
						t.Fatal("retried statement changed nothing")
					}
					if got := srv.LeaderLSN(); got != preLSN+1 {
						t.Fatalf("leader LSN after retry = %d, want %d", got, preLSN+1)
					}
					waitReplicated(t, f, preLSN+1)
					if fs, _ := f.FollowerStatus(); fs.Resyncs != 0 {
						t.Fatalf("follower re-synced %d times", fs.Resyncs)
					}
					if got := captureState(t, f).durable(); !reflect.DeepEqual(got, after.durable()) {
						t.Fatalf("follower diverged after the retry:\nleader   %+v\nfollower %+v", after, got)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					d2 := openDur(t, dir)
					defer d2.Close()
					if got := captureState(t, d2).durable(); !reflect.DeepEqual(got, after.durable()) {
						t.Fatalf("reopen lost the retried statement:\nwant %+v\ngot  %+v", after, got)
					}
				})
			}
		}
	}
}
