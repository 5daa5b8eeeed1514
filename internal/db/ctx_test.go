package db

import (
	"context"
	"errors"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/tuple"
)

// TestExecuteCtxPreCancelled pins the entry gate on both commit paths:
// a dead context commits nothing.
func TestExecuteCtxPreCancelled(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		e := newEngine(t)
		if grouped {
			e.EnableGroupCommit(4, 0)
			defer e.DisableGroupCommit()
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var tx delta.Tx
		tx.Insert("R", tuple.New(1, 2))
		if _, err := e.ExecuteCtx(ctx, &tx); !errors.Is(err, context.Canceled) {
			t.Errorf("grouped=%v: err = %v, want context.Canceled", grouped, err)
		}
		if r, _ := e.Relation("R"); r.Len() != 0 {
			t.Errorf("grouped=%v: cancelled transaction committed: %v", grouped, r)
		}
	}
}

// TestExecuteCtxQueuedCancellation deterministically cancels a
// transaction while it waits in the group queue: the leader is wedged
// on the engine lock processing an earlier batch, so the second
// submission is still queued when its context dies. It must withdraw
// with ctx.Err() and leave no trace; the wedged transaction commits
// normally once the lock is released.
func TestExecuteCtxQueuedCancellation(t *testing.T) {
	e := newEngine(t)
	e.EnableGroupCommit(8, 0)
	defer e.DisableGroupCommit()
	g := e.group.Load()

	// Wedge the leader: it pops transaction A immediately (no window)
	// and then blocks acquiring the engine lock we hold.
	e.mu.Lock()
	aDone := make(chan error, 1)
	go func() {
		var tx delta.Tx
		tx.Insert("R", tuple.New(1, 1))
		_, err := e.Execute(&tx)
		aDone <- err
	}()
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		// lastSize flips to 1 when the leader pops its first batch: A is
		// claimed and the leader is now wedged on the engine lock.
		// Checking the queue alone would race with A's enqueue.
		return g.lastSize == 1 && len(g.queue) == 0
	})

	// B enqueues behind the wedged batch and then dies.
	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() {
		var tx delta.Tx
		tx.Insert("R", tuple.New(2, 2))
		_, err := e.ExecuteCtx(ctx, &tx)
		bDone <- err
	}()
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.queue) == 1
	})
	cancel()
	if err := <-bDone; !errors.Is(err, context.Canceled) {
		t.Errorf("queued cancellation: err = %v, want context.Canceled", err)
	}
	g.mu.Lock()
	if len(g.queue) != 0 {
		t.Errorf("cancelled request left in queue (len %d)", len(g.queue))
	}
	g.mu.Unlock()

	e.mu.Unlock()
	if err := <-aDone; err != nil {
		t.Fatalf("wedged transaction failed: %v", err)
	}
	r, _ := e.Relation("R")
	if !r.Has(tuple.New(1, 1)) || r.Has(tuple.New(2, 2)) {
		t.Errorf("final state wrong: %v (want A committed, B absent)", r)
	}
}

// TestExecuteCtxClaimedRunsToVerdict pins the other side of the race:
// a context that dies after a leader claimed the request must still
// return the commit's verdict, not ctx.Err().
func TestExecuteCtxClaimedRunsToVerdict(t *testing.T) {
	e := newEngine(t)
	e.EnableGroupCommit(8, 0)
	defer e.DisableGroupCommit()
	g := e.group.Load()

	e.mu.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		var tx delta.Tx
		tx.Insert("R", tuple.New(3, 3))
		_, err := e.ExecuteCtx(ctx, &tx)
		done <- err
	}()
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.lastSize == 1 && len(g.queue) == 0 // claimed by the leader
	})
	cancel()
	e.mu.Unlock()
	if err := <-done; err != nil {
		t.Errorf("claimed transaction returned %v, want committed", err)
	}
	r, _ := e.Relation("R")
	if !r.Has(tuple.New(3, 3)) {
		t.Errorf("claimed transaction did not commit: %v", r)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
