package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"mview"
	"mview/internal/obs"
	"mview/internal/wal"
)

// timeRecovery measures restarting the closed durable database in dir:
// a raw scan of its commit log (the I/O floor of replay), then reps
// timed reopens with the options production uses. The last reopen must
// hold exactly pre, and its views must equal re-evaluation.
func timeRecovery(ph *phase, dir string, reps int, pre contents, views []viewDef) error {
	t0 := time.Now()
	if err := wal.Replay(filepath.Join(dir, "commit.log"), 0, func(wal.Record) error { return nil }); err != nil {
		return fmt.Errorf("wal scan: %w", err)
	}
	ph.scanS = time.Since(t0).Seconds()

	var recov, replay []float64
	for i := 0; i < reps; i++ {
		reg := obs.NewRegistry()
		runtime.GC()
		t0 := time.Now()
		db, err := mview.OpenDurable(dir, mview.WithGroupCommit(0, groupWindow), mview.WithObs(reg, nil))
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		recov = append(recov, time.Since(t0).Seconds())
		replay = append(replay, reg.Gauge("mview_wal_replay_seconds", "", nil).Value())
		ph.replayRecords = reg.Gauge("mview_wal_replay_records", "", nil).Value()
		var cerr error
		if i == reps-1 {
			post, err := readContents(db)
			if err == nil {
				err = sameContents("reopen", pre, post)
			}
			if err == nil {
				err = checkOracle(db, views)
			}
			cerr = err
		}
		if err := errors.Join(cerr, db.Close()); err != nil {
			return err
		}
	}
	ph.recoverS, ph.replayS = median(recov), median(replay)
	return nil
}
