package db

import (
	"fmt"

	"mview/internal/delta"
)

// ExecuteReplicated applies a batch of leader-committed transactions
// through the commit pipeline: one §6-composed maintenance pass and one
// COW snapshot publish per batch, mirroring the cost profile of the
// leader's group commit. It bypasses the group-commit leader (the batch
// boundary is fixed by the wire, not by a commit window) and logs
// nothing — a follower keeps no WAL of its own and re-bootstraps from
// the leader after a restart.
//
// The transactions already committed on the leader, so ANY failure —
// shared-phase or per-transaction — means this replica has diverged
// from the leader's state. ExecuteReplicated reports it as an error and
// makes no attempt to salvage the batch; the caller must discard the
// engine and re-sync from a checkpoint. (A per-tx failure is detected
// after the surviving members installed, which is fine: the engine is
// about to be thrown away.)
//
// Notifications still fire, so watch subscribers on a follower receive
// the same per-transaction alerts as on the leader.
func (e *Engine) ExecuteReplicated(txs []*delta.Tx) error {
	if len(txs) == 0 {
		return nil
	}
	reqs := make([]*groupReq, len(txs))
	for i, tx := range txs {
		reqs[i] = &groupReq{tx: tx}
	}
	ct := e.newGroupTrace(len(reqs), 0, 0)
	ns, err := e.executeBatchLocked(reqs, ct)
	ct.close(err)
	if err != nil {
		return fmt.Errorf("db: replicated batch failed (replica diverged): %w", err)
	}
	for _, r := range reqs {
		if r.err != nil {
			return fmt.Errorf("db: replicated tx rejected (replica diverged): %w", r.err)
		}
	}
	fire(ns)
	return nil
}
