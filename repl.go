package mview

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"

	"mview/internal/db"
	"mview/internal/delta"
	"mview/internal/repl"
	"mview/internal/wal"
)

// ErrReadOnlyReplica is returned by every mutating method of a
// follower database: replicas apply only what the leader streams, so
// writes (transactions and DDL alike) must go to the leader.
var ErrReadOnlyReplica = errors.New("mview: read-only replica (writes go to the leader)")

// ReplicationServer returns the database's leader-side replication
// stream server, creating it on first call. It requires a durable
// database — the segmented WAL is the stream's source of truth. The
// same server instance is shared by every transport (the HTTP routes
// under /v1/replication and in-process followers), so follower
// positions and lag metrics are tracked in one place.
func (d *DB) ReplicationServer() (*repl.Server, error) {
	if d.wal == nil || d.dir == "" {
		return nil, fmt.Errorf("mview: replication requires a durable leader (OpenDurable)")
	}
	d.replMu.Lock()
	defer d.replMu.Unlock()
	if d.replSrv == nil {
		d.replSrv = repl.NewServer(replSource{d: d})
		d.replSrv.SetObs(d.reg)
	}
	return d.replSrv, nil
}

// replSource adapts a durable leader database to repl.Source. The log
// position accessors are atomic and stay safe on a closed log (streams
// on a closing database drain and exit on their own terms).
type replSource struct{ d *DB }

func (s replSource) Bounds() (uint64, uint64) { return s.d.wal.Bounds() }
func (s replSource) LastLSN() uint64          { return s.d.wal.LastLSN() }

func (s replSource) OpenTail(from uint64) (*wal.Tail, error) {
	return wal.OpenTail(filepath.Join(s.d.dir, logFile), from)
}

// WriteSnapshot streams a consistent bootstrap image. The commit fence
// (the same one Checkpoint's phase A takes) is held only to capture
// the immutable COW snapshot and its exact WAL position — O(1) — and
// is released before a single byte is written, so commits flow while
// the image streams out.
func (s replSource) WriteSnapshot(w io.Writer) (uint64, error) {
	d := s.d
	var snap *db.Snapshot
	var lsn uint64
	d.engine().Fence(func() {
		if !d.closed {
			snap, lsn = d.engine().CurrentSnapshot(), d.wal.LastLSN()
		}
	})
	if snap == nil {
		return 0, fmt.Errorf("mview: snapshot on a closed database")
	}
	return lsn, writeReplSnapshot(w, snap, lsn)
}

// The bootstrap stream is the checkpoint codec's segments wrapped for
// sequential transport: a header binding the image to its WAL
// position, then length-prefixed sections (catalog first, then one
// per non-empty shard). The length prefixes exist because the segment
// readers buffer internally and over-read — sections must be framed,
// not concatenated.
const replSnapMagic = "MVIEWRPL1"

func writeReplSnapshot(w io.Writer, snap *db.Snapshot, lsn uint64) error {
	sections := 1
	for _, rel := range snap.Relations() {
		for shard := 0; shard < snap.RelationShards(rel); shard++ {
			if snap.ShardLen(rel, shard) > 0 {
				sections++
			}
		}
	}
	hdr := make([]byte, 0, len(replSnapMagic)+8+4)
	hdr = append(hdr, replSnapMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, lsn)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(sections))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var buf bytes.Buffer
	writeSection := func(fill func(io.Writer) error) error {
		buf.Reset()
		if err := fill(&buf); err != nil {
			return err
		}
		var lenb [4]byte
		binary.BigEndian.PutUint32(lenb[:], uint32(buf.Len()))
		if _, err := w.Write(lenb[:]); err != nil {
			return err
		}
		_, err := w.Write(buf.Bytes())
		return err
	}
	if err := writeSection(snap.WriteCatalog); err != nil {
		return err
	}
	for _, rel := range snap.Relations() {
		for shard := 0; shard < snap.RelationShards(rel); shard++ {
			if snap.ShardLen(rel, shard) == 0 {
				continue
			}
			rel, shard := rel, shard
			if err := writeSection(func(out io.Writer) error {
				return snap.WriteShard(out, rel, shard)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxReplSection bounds one bootstrap section (1 GiB) against corrupt
// length fields; real sections are one shard each.
const maxReplSection = 1 << 30

func loadReplSnapshot(r io.Reader, cfg config) (*db.Engine, uint64, error) {
	hdr := make([]byte, len(replSnapMagic)+8+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, fmt.Errorf("mview: reading replication snapshot header: %w", err)
	}
	if string(hdr[:len(replSnapMagic)]) != replSnapMagic {
		return nil, 0, fmt.Errorf("mview: not a replication snapshot (magic %q)", hdr[:len(replSnapMagic)])
	}
	lsn := binary.BigEndian.Uint64(hdr[len(replSnapMagic):])
	sections := binary.BigEndian.Uint32(hdr[len(replSnapMagic)+8:])
	if sections == 0 {
		return nil, 0, fmt.Errorf("mview: replication snapshot with no sections")
	}
	readSection := func() ([]byte, error) {
		var lenb [4]byte
		if _, err := io.ReadFull(r, lenb[:]); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(lenb[:])
		if n > maxReplSection {
			return nil, fmt.Errorf("mview: snapshot section of %d bytes exceeds limit", n)
		}
		sec := make([]byte, n)
		if _, err := io.ReadFull(r, sec); err != nil {
			return nil, err
		}
		return sec, nil
	}
	cat, err := readSection()
	if err != nil {
		return nil, 0, fmt.Errorf("mview: reading snapshot catalog: %w", err)
	}
	eng, pending, err := db.BeginSegmentedLoad(bytes.NewReader(cat), cfg.engineOptions()...)
	if err != nil {
		return nil, 0, err
	}
	for i := uint32(1); i < sections; i++ {
		sec, err := readSection()
		if err != nil {
			return nil, 0, fmt.Errorf("mview: reading snapshot section %d: %w", i, err)
		}
		if err := eng.LoadShardSegment(bytes.NewReader(sec)); err != nil {
			return nil, 0, err
		}
	}
	if err := eng.CompleteSegmentedLoad(pending); err != nil {
		return nil, 0, err
	}
	return eng, lsn, nil
}

// followerState is the replication machinery of a follower database.
type followerState struct {
	id      string
	cfg     config
	client  *repl.Client
	cancel  context.CancelFunc
	done    chan struct{}
	applied atomic.Uint64
}

// OpenFollower opens a read-only in-memory follower of the leader at
// leaderURL (its mviewd base URL, e.g. "http://leader:7171"). The
// follower bootstraps from a leader snapshot, applies the replication
// stream through the same maintenance pipeline the leader runs, and
// publishes its own COW snapshots — every read API (queries, views,
// watch subscriptions, HTTP routes) serves locally with no leader
// round-trips. Mutating methods return ErrReadOnlyReplica.
//
// id names this follower in the leader's lag metrics and must be
// stable across restarts. The connection is maintained in the
// background: dropped streams resume from the applied position, and a
// leader that has reclaimed needed WAL segments triggers a transparent
// re-sync from a fresh snapshot. Close stops replication.
func OpenFollower(leaderURL, id string, opts ...Option) (*DB, error) {
	return openFollowerTransport(repl.HTTPTransport{Base: leaderURL}, id, opts...)
}

// openFollowerTransport is OpenFollower over any transport — the
// in-process LocalTransport variant is what oracle tests and the
// replication benchmark use (no second process, same client logic).
func openFollowerTransport(t repl.Transport, id string, opts ...Option) (*DB, error) {
	if id == "" {
		return nil, fmt.Errorf("mview: follower id must be non-empty")
	}
	cfg := buildOpenConfig(opts)
	// Followers never run the group-commit scheduler: batch boundaries
	// arrive from the wire and apply through ExecuteReplicated.
	cfg.groupCommit = false
	d := &DB{readonly: true}
	d.eng.Store(db.New(cfg.engineOptions()...))
	// Policy DDL replays on followers so their catalogs mirror the
	// leader's, but only the leader RUNS the policies: refreshes arrive
	// through the replication stream, so a follower driving its own
	// timer wheel would do redundant work (and diverge the staleness
	// its metrics report from what the stream provides).
	d.engine().DisablePolicyRefresh()
	d.applyRuntime(cfg)
	f := &followerState{id: id, cfg: cfg}
	d.follower = f
	f.client = repl.NewClient(id, t, followerApplier{d})
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		_ = f.client.Run(ctx)
	}()
	return d, nil
}

// FollowerStatus reports a follower's replication state (applied and
// leader positions, lag, re-sync and reconnect counts). ok is false on
// databases that are not followers.
func (d *DB) FollowerStatus() (st repl.ClientStatus, ok bool) {
	if d.follower == nil {
		return repl.ClientStatus{}, false
	}
	return d.follower.client.Status(), true
}

// followerApplier implements repl.Applier on a follower database. All
// methods run on the client's single replication goroutine.
type followerApplier struct{ d *DB }

// Bootstrap replaces the follower's entire engine from a leader
// snapshot stream. Readers are never blocked: they keep the old
// engine's immutable snapshots until the atomic pointer swap, after
// which new reads see the bootstrapped state.
func (a followerApplier) Bootstrap(r io.Reader) (uint64, error) {
	d := a.d
	eng, lsn, err := loadReplSnapshot(r, d.follower.cfg)
	if err != nil {
		return 0, err
	}
	if d.follower.cfg.maintWorkers > 0 {
		eng.SetMaintWorkers(d.follower.cfg.maintWorkers)
	}
	// Carry instrumentation over to the fresh engine (set by Open
	// options or a later Instrument call — e.g. the HTTP handler).
	eng.SetObs(d.reg, d.tracer)
	// Followers never drive policy refreshes (see openFollowerTransport);
	// the replaced engine's scheduler must stop or its wheel goroutine
	// would outlive the swap.
	eng.DisablePolicyRefresh()
	if old := d.eng.Swap(eng); old != nil {
		old.StopScheduler()
	}
	d.follower.applied.Store(lsn)
	return lsn, nil
}

// Apply applies one shipped batch: consecutive transaction records
// compose into a single maintenance pass (ExecuteReplicated — the same
// §6 path a leader commit group takes), DDL applies in stream order
// between them, and noop continuity records only advance the position.
// Any failure is a divergence; the client answers it with a re-sync.
func (a followerApplier) Apply(recs []wal.Record) error {
	d := a.d
	var txs []*delta.Tx
	flush := func() error {
		if len(txs) == 0 {
			return nil
		}
		err := d.engine().ExecuteReplicated(txs)
		txs = nil
		return err
	}
	for _, rec := range recs {
		if rec.Kind == wal.KindNoop {
			continue
		}
		if rec.Kind != walKindStmt {
			return fmt.Errorf("mview: unknown replicated record kind %d at LSN %d", rec.Kind, rec.LSN)
		}
		var st walStmt
		if err := gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(&st); err != nil {
			return fmt.Errorf("mview: decoding replicated record at LSN %d: %w", rec.LSN, err)
		}
		if st.Kind == "tx" {
			ops := make([]Op, len(st.Ops))
			for i, o := range st.Ops {
				ops[i] = Op{del: o.Del, rel: o.Rel, vals: o.Vals}
			}
			tx := buildTx(ops)
			txs = append(txs, &tx)
			continue
		}
		// DDL: flush pending transactions first to preserve stream
		// order, then apply through the same dispatch recovery uses.
		if err := flush(); err != nil {
			return err
		}
		if err := d.applyStmt(st); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	d.follower.applied.Store(recs[len(recs)-1].LSN)
	return nil
}

func (a followerApplier) AppliedLSN() uint64 {
	return a.d.follower.applied.Load()
}
