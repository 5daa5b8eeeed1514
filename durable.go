package mview

// Durable databases: a segmented commit log plus incremental
// checkpoints.
//
// OpenDurable gives the engine crash recovery: every DDL statement and
// transaction is appended to an fsynced, checksummed log before it
// becomes visible (the engine's log sink runs inside the commit, after
// validation and before the snapshot publish), and Checkpoint persists
// the database state so the covered log prefix can be dropped. Reopening the directory loads the
// latest checkpoint and replays the log records past it. Views
// re-materialize from the restored base relations, so a reopened
// database is always internally consistent.
//
// On-disk layout (new format):
//
//	MANIFEST            the checkpoint root: segment list + WAL position
//	ckpt-<gen>-<i>.seg  immutable checkpoint segments (catalog + shards)
//	commit.log.<n>      WAL segments (internal/wal)
//
// A checkpoint writes the catalog segment (scheme + view definitions)
// plus one data segment per dirty, non-empty shard — concurrently, on
// the maintenance pool, with commits still flowing — and re-references
// the previous checkpoint's segments for clean shards. Only the final
// manifest swap (tmp write, rename, dirsync) and the WAL bookkeeping
// (segment seal at capture, covered-prefix drop) run under the commit
// fence, so the fence hold is O(manifest), not O(data).
//
// The legacy layout (monolithic snapshot.db + single commit.log) is
// migrated transparently on first open: the log file is adopted as the
// oldest WAL segment and the first checkpoint rewrites the snapshot
// into segments, after which snapshot.db is removed.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/db"
	"mview/internal/obs"
	"mview/internal/wal"
)

const (
	snapshotFile = "snapshot.db" // legacy layout only
	logFile      = "commit.log"
	manifestFile = "MANIFEST"
	// walKindStmt tags gob-encoded statements in the log.
	walKindStmt uint8 = 1
	// snapshotMagic prefixes legacy durable snapshots (before the u64
	// LSN and the engine snapshot stream).
	snapshotMagic = "MVSNAP1\n"
	// manifestMagic heads the checkpoint manifest.
	manifestMagic = "MVMANIFEST1"
	// defaultSegmentBytes is the WAL segment rotation threshold when
	// WithSegmentSize is not given.
	defaultSegmentBytes = 64 << 20
)

// walOp mirrors Op with exported fields for gob.
type walOp struct {
	Del  bool
	Rel  string
	Vals []int64
}

// walStmt is one logged statement.
type walStmt struct {
	Kind    string // "tx" | "relation" | "view" | "joinview" | "dropview" | "policy"
	Name    string
	Attrs   []string
	Spec    ViewSpec
	Options []string
	Rels    []string
	Ops     []walOp
}

// manifestSeg is one data segment referenced by a manifest.
type manifestSeg struct {
	file  string
	rel   string
	shard int
}

// manifest is the checkpoint root: which segment files make up the
// checkpointed state and where in the WAL it was taken.
type manifest struct {
	gen       uint64 // checkpoint generation, monotonically increasing
	lsn       uint64 // WAL position the checkpoint covers
	shards    int    // engine shard count at write time
	catalog   string // catalog segment file name
	relShards map[string]int
	segs      []manifestSeg
}

// files returns every segment file the manifest references.
func (m *manifest) files() map[string]bool {
	out := make(map[string]bool, len(m.segs)+1)
	out[m.catalog] = true
	for _, s := range m.segs {
		out[s.file] = true
	}
	return out
}

// encode renders the manifest in its line-based text format with a
// trailing CRC32 line (debuggable with cat, torn-proof by checksum —
// though the atomic rename means a reader only ever sees a whole
// manifest).
func (m *manifest) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", manifestMagic)
	fmt.Fprintf(&b, "gen %d\n", m.gen)
	fmt.Fprintf(&b, "lsn %d\n", m.lsn)
	fmt.Fprintf(&b, "shards %d\n", m.shards)
	fmt.Fprintf(&b, "catalog %s\n", m.catalog)
	for _, rel := range sortedRelNames(m.relShards) {
		fmt.Fprintf(&b, "relation %s %d\n", strconv.Quote(rel), m.relShards[rel])
	}
	for _, s := range m.segs {
		fmt.Fprintf(&b, "segment %s %s %d\n", s.file, strconv.Quote(s.rel), s.shard)
	}
	fmt.Fprintf(&b, "crc %d\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

func sortedRelNames(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ { // insertion sort: tiny n, no extra import
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// decodeManifest parses and checksums a manifest file's contents.
func decodeManifest(data []byte) (*manifest, error) {
	crcAt := bytes.LastIndex(data, []byte("crc "))
	if crcAt < 0 {
		return nil, fmt.Errorf("mview: manifest missing crc line")
	}
	var wantCRC uint32
	if _, err := fmt.Sscanf(string(data[crcAt:]), "crc %d", &wantCRC); err != nil {
		return nil, fmt.Errorf("mview: manifest crc line: %w", err)
	}
	if got := crc32.ChecksumIEEE(data[:crcAt]); got != wantCRC {
		return nil, fmt.Errorf("mview: manifest checksum mismatch (got %d, want %d)", got, wantCRC)
	}
	m := &manifest{relShards: make(map[string]int)}
	sc := bufio.NewScanner(bytes.NewReader(data[:crcAt]))
	if !sc.Scan() || sc.Text() != manifestMagic {
		return nil, fmt.Errorf("mview: not a checkpoint manifest")
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "gen":
			if _, err := fmt.Sscanf(rest, "%d", &m.gen); err != nil {
				return nil, fmt.Errorf("mview: manifest gen: %w", err)
			}
		case "lsn":
			if _, err := fmt.Sscanf(rest, "%d", &m.lsn); err != nil {
				return nil, fmt.Errorf("mview: manifest lsn: %w", err)
			}
		case "shards":
			if _, err := fmt.Sscanf(rest, "%d", &m.shards); err != nil {
				return nil, fmt.Errorf("mview: manifest shards: %w", err)
			}
		case "catalog":
			m.catalog = rest
		case "relation":
			quoted, nstr, ok := cutLastField(rest)
			if !ok {
				return nil, fmt.Errorf("mview: manifest relation line %q", line)
			}
			rel, err := strconv.Unquote(quoted)
			if err != nil {
				return nil, fmt.Errorf("mview: manifest relation name %q: %w", quoted, err)
			}
			n, err := strconv.Atoi(nstr)
			if err != nil {
				return nil, fmt.Errorf("mview: manifest relation shards %q: %w", nstr, err)
			}
			m.relShards[rel] = n
		case "segment":
			file, rest2, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("mview: manifest segment line %q", line)
			}
			quoted, shardStr, ok := cutLastField(rest2)
			if !ok {
				return nil, fmt.Errorf("mview: manifest segment line %q", line)
			}
			rel, err := strconv.Unquote(quoted)
			if err != nil {
				return nil, fmt.Errorf("mview: manifest segment relation %q: %w", quoted, err)
			}
			shard, err := strconv.Atoi(shardStr)
			if err != nil {
				return nil, fmt.Errorf("mview: manifest segment shard %q: %w", shardStr, err)
			}
			m.segs = append(m.segs, manifestSeg{file: file, rel: rel, shard: shard})
		default:
			return nil, fmt.Errorf("mview: unknown manifest line %q", line)
		}
	}
	if m.catalog == "" {
		return nil, fmt.Errorf("mview: manifest missing catalog segment")
	}
	return m, nil
}

// cutLastField splits "… <last>" at the final space.
func cutLastField(s string) (head, last string, ok bool) {
	i := strings.LastIndex(s, " ")
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// readManifest loads and validates dir's MANIFEST; (nil, nil) when the
// directory has none (fresh or legacy layout).
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return decodeManifest(data)
}

// OpenDurable opens (creating if necessary) a durable database rooted
// at dir, configured by the given options. State is recovered from the
// latest checkpoint (manifest + segments) plus the commit log.
// Engine-level options (WithShards) shape the recovered state itself;
// the runtime options (WithGroupCommit, WithObs, WithMaintWorkers) are
// applied after the log is attached, so instrumentation covers the log
// and group commit batches its appends from the first transaction.
//
// A directory in the legacy layout (monolithic snapshot.db +
// commit.log) opens transparently and is migrated in place: recovery
// reads the old files, an immediate checkpoint writes the segmented
// layout, and the legacy snapshot is removed.
func OpenDurable(dir string, opts ...Option) (*DB, error) {
	cfg := buildOpenConfig(opts)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash mid-checkpoint can leave half-written tmp files and
	// orphaned segments behind. None of them are referenced by a
	// durable manifest, so they hold nothing; remove them rather than
	// leak one batch per crash.
	for _, stale := range []string{snapshotFile + ".tmp", manifestFile + ".tmp"} {
		if err := os.Remove(filepath.Join(dir, stale)); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if err := removeOrphanSegments(dir, man); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, logFile)
	snapPath := filepath.Join(dir, snapshotFile)

	var d *DB
	var snapLSN uint64
	migrate := false
	switch {
	case man != nil:
		eng, err := loadFromManifest(dir, man, cfg)
		if err != nil {
			return nil, err
		}
		d = &DB{man: man}
		d.eng.Store(eng)
		snapLSN = man.lsn
		// A crash between a migration's manifest swap and its legacy
		// snapshot removal leaves snapshot.db behind; the manifest is
		// the truth now.
		if err := os.Remove(snapPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	default:
		d = &DB{}
		d.eng.Store(db.New(cfg.engineOptions()...))
		if f, err := os.Open(snapPath); err == nil {
			migrate = true
			var eng *db.Engine
			snapLSN, eng, err = loadLegacySnapshot(f, cfg)
			f.Close()
			if err != nil {
				return nil, err
			}
			d.eng.Store(eng)
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}

	// The state the checkpoint (or fresh engine) restored is exactly
	// what the segments hold, so shards start the first interval clean —
	// unless the engine resharded relative to the manifest (or we loaded
	// the shard-oblivious legacy snapshot), in which case the next
	// checkpoint must rewrite everything. WAL replay below re-dirties
	// the shards it touches through the normal commit path.
	if man != nil {
		cur := d.engine().CurrentSnapshot()
		for rel, n := range man.relShards {
			if cur.RelationShards(rel) == n {
				d.engine().SetCheckpointClean(rel)
			}
		}
	}

	// Replay committed statements past the checkpoint, timing the pass
	// so Instrument can expose recovery cost (mview_wal_replay_*).
	replayStart := time.Now()
	err = wal.Replay(logPath, snapLSN, func(r wal.Record) error {
		if r.Kind != walKindStmt {
			return fmt.Errorf("mview: unknown log record kind %d at LSN %d", r.Kind, r.LSN)
		}
		var st walStmt
		if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&st); err != nil {
			return fmt.Errorf("mview: decoding log record %d: %w", r.LSN, err)
		}
		if err := d.applyStmt(st); err != nil {
			return fmt.Errorf("mview: replaying log record %d: %w", r.LSN, err)
		}
		d.replayRecords++
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.replayDur = time.Since(replayStart)

	log, err := wal.Open(logPath)
	if err != nil {
		return nil, err
	}
	log.EnsureLSN(snapLSN + 1)
	if cfg.segmentBytes > 0 {
		log.SegmentBytes = cfg.segmentBytes
	} else {
		log.SegmentBytes = defaultSegmentBytes
	}
	d.wal = log
	d.dir = dir
	d.engine().SetLog(d.logPayloadBatch)

	if migrate {
		// One-time layout migration: checkpoint now (every shard is
		// dirty after a legacy load, so this writes the full segmented
		// state), then retire the legacy snapshot. A crash anywhere in
		// between reopens correctly: before the manifest swap the legacy
		// files still recover, after it the manifest wins.
		if err := d.Checkpoint(); err != nil {
			d.wal.Close()
			return nil, fmt.Errorf("mview: migrating legacy layout: %w", err)
		}
	}
	d.applyRuntime(cfg)
	return d, nil
}

// loadLegacySnapshot reads the pre-segmentation snapshot.db format.
func loadLegacySnapshot(f *os.File, cfg config) (uint64, *db.Engine, error) {
	magic := make([]byte, len(snapshotMagic))
	var lsnBuf [8]byte
	// io.ReadFull tolerates readers that return (0, nil) and reports
	// short reads as io.ErrUnexpectedEOF, so a truncated header is a
	// clean error instead of a spin.
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != snapshotMagic {
		return 0, nil, fmt.Errorf("mview: %s is not a durable snapshot", f.Name())
	}
	if _, err := io.ReadFull(f, lsnBuf[:]); err != nil {
		return 0, nil, fmt.Errorf("mview: corrupt snapshot header: %w", err)
	}
	snapLSN := binary.BigEndian.Uint64(lsnBuf[:])
	eng, err := db.Load(f, cfg.engineOptions()...)
	if err != nil {
		return 0, nil, fmt.Errorf("mview: loading snapshot: %w", err)
	}
	return snapLSN, eng, nil
}

// loadFromManifest restores an engine from a checkpoint's catalog and
// data segments.
func loadFromManifest(dir string, man *manifest, cfg config) (*db.Engine, error) {
	cat, err := os.Open(filepath.Join(dir, man.catalog))
	if err != nil {
		return nil, fmt.Errorf("mview: opening catalog segment: %w", err)
	}
	eng, pending, err := db.BeginSegmentedLoad(cat, cfg.engineOptions()...)
	cat.Close()
	if err != nil {
		return nil, fmt.Errorf("mview: loading catalog segment %s: %w", man.catalog, err)
	}
	for _, seg := range man.segs {
		f, err := os.Open(filepath.Join(dir, seg.file))
		if err != nil {
			return nil, fmt.Errorf("mview: opening segment %s: %w", seg.file, err)
		}
		err = eng.LoadShardSegment(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("mview: loading segment %s: %w", seg.file, err)
		}
	}
	if err := eng.CompleteSegmentedLoad(pending); err != nil {
		return nil, err
	}
	return eng, nil
}

// removeOrphanSegments deletes ckpt-*.seg files the manifest does not
// reference — the debris of a checkpoint that crashed before its
// manifest swap (or after being superseded).
func removeOrphanSegments(dir string, man *manifest) error {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.seg"))
	if err != nil {
		return err
	}
	var referenced map[string]bool
	if man != nil {
		referenced = man.files()
	}
	for _, p := range matches {
		if referenced[filepath.Base(p)] {
			continue
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// applyStmt re-executes a logged statement without re-logging it.
func (d *DB) applyStmt(st walStmt) error {
	switch st.Kind {
	case "relation":
		return d.engine().CreateRelation(st.Name, toAttrs(st.Attrs)...)
	case "view":
		opts, err := optionsByName(st.Options)
		if err != nil {
			return err
		}
		v, err := st.Spec.build(st.Name)
		if err != nil {
			return err
		}
		return d.engine().CreateView(v, buildConfig(opts))
	case "joinview":
		opts, err := optionsByName(st.Options)
		if err != nil {
			return err
		}
		return d.createJoinViewCore(nil, st.Name, st.Rels, opts)
	case "dropview":
		return d.engine().DropView(st.Name)
	case "policy":
		// SetPolicy logs the spec as a single option name; re-parse and
		// re-apply it. Replicas take this same path (repl.go), which is
		// how policy DDL reaches followers.
		if len(st.Options) != 1 {
			return fmt.Errorf("mview: malformed policy statement for view %q (%d options)", st.Name, len(st.Options))
		}
		o, err := ParseViewOption(st.Options[0])
		if err != nil {
			return err
		}
		if o.when == nil {
			return fmt.Errorf("mview: logged policy %q for view %q is not a refresh policy", st.Options[0], st.Name)
		}
		return d.engine().SetViewPolicy(st.Name, *o.when)
	case "tx":
		ops := make([]Op, len(st.Ops))
		for i, o := range st.Ops {
			ops[i] = Op{del: o.Del, rel: o.Rel, vals: o.Vals}
		}
		tx := buildTx(ops)
		_, err := d.engine().Execute(&tx)
		return err
	default:
		return fmt.Errorf("mview: unknown logged statement kind %q", st.Kind)
	}
}

func optionsByName(names []string) ([]ViewOption, error) {
	opts := make([]ViewOption, 0, len(names))
	for _, n := range names {
		o, err := ParseViewOption(n)
		if err != nil {
			return nil, err
		}
		opts = append(opts, o)
	}
	return opts, nil
}

// encodeStmt gob-encodes a statement into a commit-log payload.
func encodeStmt(st walStmt) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// logPayloadBatch is the engine's log sink: it appends one
// already-encoded statement per payload — a commit group's members or
// a single DDL statement — framed at consecutive LSNs and flushed with
// a single fsync. Recovery needs no group framing: each record replays
// as its own statement, in the order the engine applied them.
func (d *DB) logPayloadBatch(payloads [][]byte) error {
	entries := make([]wal.Entry, len(payloads))
	for i, p := range payloads {
		entries[i] = wal.Entry{Kind: walKindStmt, Payload: p}
	}
	_, err := d.wal.AppendBatch(entries)
	return err
}

// checkpointHook, when non-nil, runs between checkpoint steps so tests
// can inject faults. Steps, in order: "segment-write" (catalog + dirty
// shard segments written, fsynced, and their directory entries synced;
// before the manifest tmp), "manifest-tmp" (MANIFEST.tmp written and
// synced; before the rename), "rename" (manifest renamed into place;
// before the directory fsync), "dirsync" (manifest entry durable;
// before old segments and covered WAL segments are deleted), and
// "segment-delete" (obsolete checkpoint and WAL segments removed).
// Returning errSimulatedCrash aborts with no cleanup — the process
// died at that instant — while any other error takes the normal
// cleanup path.
var checkpointHook func(step string) error

// errSimulatedCrash marks a fault-injection abort (see checkpointHook);
// it is the commit log's, so one sentinel kills either layer.
var errSimulatedCrash = wal.ErrSimulatedCrash

func hookStep(step string) error {
	if checkpointHook == nil {
		return nil
	}
	return checkpointHook(step)
}

// syncDir fsyncs a directory so a preceding rename's new entry is on
// disk before anything that depends on it.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CheckpointStats describes the last completed checkpoint.
type CheckpointStats struct {
	// LSN is the WAL position the checkpoint covers.
	LSN uint64
	// Duration is the whole checkpoint, capture to cleanup.
	Duration time.Duration
	// FenceHold is how long the checkpoint held the commit fence —
	// capture plus manifest swap; segment writing runs outside it.
	FenceHold time.Duration
	// SegmentsWritten counts segment files written (catalog included);
	// SegmentsReused counts clean shards re-referenced from the
	// previous checkpoint.
	SegmentsWritten int
	SegmentsReused  int
	// BytesWritten totals the new segment files' sizes.
	BytesWritten int64
	// WALSegmentsDropped counts sealed commit-log segments deleted
	// because this checkpoint covers them.
	WALSegmentsDropped int
}

// LastCheckpointStats reports the most recent successful Checkpoint on
// this handle (zero value before the first one).
func (d *DB) LastCheckpointStats() CheckpointStats {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.ckptStats
}

// segJob is one segment file the checkpoint must write; rel == ""
// means the catalog.
type segJob struct {
	file  string
	rel   string
	shard int
}

// Checkpoint persists the current database state incrementally and
// drops the covered commit-log prefix. It returns an error on
// in-memory databases.
//
// Only shards dirtied since the previous checkpoint are rewritten
// (plus the small catalog segment); clean shards re-reference the
// previous checkpoint's immutable segment files. Segment writing runs
// concurrently on the maintenance pool while commits continue — the
// commit fence is held only to capture a consistent cut (snapshot, WAL
// position, dirty set; O(1)) and to swap the manifest (O(manifest)).
//
// Crash safety: new segments are written to uniquely named files and
// fsynced, the directory entry set is fsynced, then MANIFEST.tmp is
// written, fsynced, renamed over MANIFEST, and the directory is
// fsynced again — only then are superseded checkpoint segments and
// covered WAL segments deleted. A crash at any point leaves either the
// old manifest with the full log (new segments are unreferenced
// debris, removed at next open) or the new manifest (covered log
// content then redundant), so replay always recovers every committed
// transaction.
func (d *DB) Checkpoint() error {
	if d.wal == nil {
		return fmt.Errorf("mview: Checkpoint on an in-memory database (use OpenDurable)")
	}
	// One checkpoint at a time: the background ticker and an operator
	// CLI may race, and generations must be sequential.
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	t0 := time.Now()

	// Phase A — under the commit fence: capture a consistent cut. The
	// published snapshot equals the logged state here (no statement is
	// in flight), the WAL seals its active segment so the covered
	// prefix becomes droppable, and the dirty bitmaps reset to start
	// the next interval.
	var snap *db.Snapshot
	var lsn uint64
	var dirty map[string][]bool
	var err error
	d.engine().Fence(func() {
		if d.closed {
			err = fmt.Errorf("mview: Checkpoint on a closed database")
			return
		}
		snap = d.engine().CurrentSnapshot()
		lsn = d.wal.LastLSN()
		if err = d.wal.Rotate(); err == nil {
			dirty = d.engine().TakeCheckpointDirty()
		}
	})
	if err != nil {
		return err
	}
	prev := d.man
	fenceHold := time.Since(t0)

	restoreDirty := func() { d.engine().Fence(func() { d.engine().RestoreCheckpointDirty(dirty) }) }

	// Phase B — no fence: plan the segment set and write the new files
	// concurrently on the maintenance pool. The snapshot is immutable
	// (COW), so commits flowing meanwhile cannot perturb it.
	var gen uint64 = 1
	if prev != nil {
		gen = prev.gen + 1
	}
	man := &manifest{
		gen:       gen,
		lsn:       lsn,
		shards:    d.engine().Shards(),
		catalog:   fmt.Sprintf("ckpt-%d-0.seg", gen),
		relShards: make(map[string]int),
	}
	prevSegs := make(map[string]manifestSeg)
	if prev != nil {
		for _, s := range prev.segs {
			prevSegs[segKey(s.rel, s.shard)] = s
		}
	}
	jobs := []segJob{{file: man.catalog}}
	reused := 0
	next := 1
	for _, rel := range snap.Relations() {
		n := snap.RelationShards(rel)
		man.relShards[rel] = n
		bits := dirty[rel]
		// A reusable previous segment requires the same shard layout
		// then and now; otherwise every shard is dirty anyway (reshard
		// marks nothing clean).
		reusable := prev != nil && prev.relShards[rel] == n
		for shard := 0; shard < n; shard++ {
			if shard < len(bits) && !bits[shard] {
				if reusable {
					if s, ok := prevSegs[segKey(rel, shard)]; ok {
						man.segs = append(man.segs, s)
						reused++
					}
					continue
				}
				// Clean bit but no matching layout to reuse from: fall
				// through and rewrite (first checkpoint after reshard).
			}
			if snap.ShardLen(rel, shard) == 0 {
				continue // absence of a segment means an empty shard
			}
			file := fmt.Sprintf("ckpt-%d-%d.seg", gen, next)
			next++
			jobs = append(jobs, segJob{file: file, rel: rel, shard: shard})
			man.segs = append(man.segs, manifestSeg{file: file, rel: rel, shard: shard})
		}
	}

	var bytesWritten atomic.Int64
	cleanupNew := func() {
		for _, j := range jobs {
			os.Remove(filepath.Join(d.dir, j.file))
		}
	}
	if err := d.writeSegments(snap, jobs, &bytesWritten); err != nil {
		if !errors.Is(err, errSimulatedCrash) {
			cleanupNew()
			restoreDirty()
		}
		return err
	}
	if err := syncDir(d.dir); err != nil {
		cleanupNew()
		restoreDirty()
		return err
	}
	if err := hookStep("segment-write"); err != nil {
		if !errors.Is(err, errSimulatedCrash) {
			cleanupNew()
			restoreDirty()
		}
		return err
	}

	// Phase C — under the commit fence again: swap the manifest and
	// prune. Everything here is O(manifest), independent of data size.
	var walDropped int
	var reg *obs.Registry
	d.engine().Fence(func() {
		fenceStart := time.Now()
		walDropped, err = d.swapManifest(man, prev, lsn, dirty, cleanupNew)
		fenceHold += time.Since(fenceStart)
		reg = d.reg
	})
	if err != nil {
		return err
	}
	d.ckptStats = CheckpointStats{
		LSN:                lsn,
		Duration:           time.Since(t0),
		FenceHold:          fenceHold,
		SegmentsWritten:    len(jobs),
		SegmentsReused:     reused,
		BytesWritten:       bytesWritten.Load(),
		WALSegmentsDropped: walDropped,
	}
	if reg != nil {
		reg.Histogram("mview_checkpoint_seconds",
			"Checkpoint duration: segment writes, manifest swap, pruning.", nil, nil).
			ObserveDuration(d.ckptStats.Duration)
		reg.Histogram("mview_checkpoint_fence_seconds",
			"Commit-fence hold time per checkpoint (capture + manifest swap; segment writes run outside the fence).", nil, nil).
			ObserveDuration(fenceHold)
		reg.Counter("mview_checkpoint_segments_written_total",
			"Checkpoint segment files written (catalog included).", nil).
			Add(int64(len(jobs)))
		reg.Counter("mview_checkpoint_segments_reused_total",
			"Clean shards re-referenced from the previous checkpoint instead of rewritten.", nil).
			Add(int64(reused))
	}
	return nil
}

// swapManifest is Checkpoint's phase C, run inside the engine fence
// with ckptMu held: it makes man the on-disk checkpoint root (and
// d.man) and prunes what it supersedes, returning how many WAL
// segments were dropped.
func (d *DB) swapManifest(man, prev *manifest, lsn uint64, dirty map[string][]bool, cleanupNew func()) (int, error) {
	abort := func(err error) (int, error) {
		if !errors.Is(err, errSimulatedCrash) {
			os.Remove(filepath.Join(d.dir, manifestFile+".tmp"))
			cleanupNew()
			d.engine().RestoreCheckpointDirty(dirty)
		}
		return 0, err
	}
	if d.closed {
		return abort(fmt.Errorf("mview: database closed during checkpoint"))
	}
	tmp := filepath.Join(d.dir, manifestFile+".tmp")
	if err := writeFileSynced(tmp, man.encode()); err != nil {
		return abort(err)
	}
	if err := hookStep("manifest-tmp"); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, manifestFile)); err != nil {
		return abort(err)
	}
	// The rename is the commit point: from here the new manifest is the
	// disk truth (fsync pending, but a crash that loses the rename just
	// falls back to the old manifest plus the still-complete WAL).
	d.man = man
	if err := hookStep("rename"); err != nil {
		return 0, err
	}
	if err := syncDir(d.dir); err != nil {
		return 0, err
	}
	if err := hookStep("dirsync"); err != nil {
		return 0, err
	}

	// Prune: checkpoint segments only the old manifest referenced, the
	// legacy snapshot if this was the migration, and WAL segments the
	// new manifest covers. All of it is redundant now; failures leave
	// only debris that the next open sweeps.
	if prev != nil {
		cur := man.files()
		for f := range prev.files() {
			if !cur[f] {
				os.Remove(filepath.Join(d.dir, f))
			}
		}
	}
	if err := os.Remove(filepath.Join(d.dir, snapshotFile)); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	walDropped, err := d.wal.DropThrough(lsn)
	if err != nil {
		return 0, err
	}
	return walDropped, hookStep("segment-delete")
}

func segKey(rel string, shard int) string { return fmt.Sprintf("%s\x00%d", rel, shard) }

// writeSegments writes the planned segment files concurrently on a
// pool sized like the maintenance pool, fsyncing each. The first error
// wins; remaining jobs are skipped.
func (d *DB) writeSegments(snap *db.Snapshot, jobs []segJob, bytesWritten *atomic.Int64) error {
	workers := d.engine().MaintWorkers()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			if err := d.writeSegment(snap, j, bytesWritten); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	ch := make(chan segJob)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				if err := d.writeSegment(snap, j, bytesWritten); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
	return firstErr
}

// writeSegment writes and fsyncs one segment file.
func (d *DB) writeSegment(snap *db.Snapshot, j segJob, bytesWritten *atomic.Int64) error {
	f, err := os.Create(filepath.Join(d.dir, j.file))
	if err != nil {
		return err
	}
	if j.rel == "" {
		err = snap.WriteCatalog(f)
	} else {
		err = snap.WriteShard(f, j.rel, j.shard)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if info, serr := f.Stat(); serr == nil {
		bytesWritten.Add(info.Size())
	}
	return f.Close()
}

// writeFileSynced writes data to path and fsyncs it.
func writeFileSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SetLogSync controls whether each logged statement is fsynced before
// the call returns (the default). Disabling it trades durability
// against OS crashes for throughput — process crashes still lose
// nothing the OS has accepted. No-op on in-memory databases.
func (d *DB) SetLogSync(sync bool) {
	if d.wal != nil {
		d.engine().Fence(func() { d.wal.Sync = sync })
	}
}

// Close releases the commit log and, on a follower, stops replication
// (waiting for the apply loop to exit). In-memory leaders without
// scheduled refresh policies need no Close; databases with Every,
// MaxStaleness, or AdaptivePolicy views should Close to stop the
// refresh scheduler's timer wheel.
func (d *DB) Close() error {
	if d.follower != nil {
		d.follower.cancel()
		<-d.follower.done
	}
	// Stop the group scheduler first (it drains queued transactions),
	// then the refresh scheduler (its wheel may be mid-refresh; stop
	// waits it out so nothing fires after Close), then close the log
	// inside the commit fence: a statement racing Close either logs and
	// publishes before it or fails its append on the closed log and
	// leaves no trace.
	d.engine().DisableGroupCommit()
	d.engine().StopScheduler()
	if d.wal == nil {
		return nil
	}
	var err error
	d.engine().Fence(func() {
		d.closed = true
		err = d.wal.Close()
	})
	return err
}
