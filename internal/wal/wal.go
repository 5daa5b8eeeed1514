// Package wal implements a minimal write-ahead log: an append-only
// sequence of checksummed, length-framed records with monotonically
// increasing log sequence numbers (LSNs), stored as a chain of segment
// files.
//
// The durable mview database logs every DDL statement and transaction
// before applying it; on restart, records with LSN greater than the
// last checkpointed snapshot are replayed. A torn final record (from a
// crash mid-append) is detected by its length/checksum and truncated.
//
// On disk the log rooted at path p is the ordered file chain
//
//	p          (legacy single-file layout, adopted as the oldest segment)
//	p.0, p.1, p.2, ...
//
// Appends go to the highest-numbered (active) segment. Rotate seals the
// active segment and starts a new one; sealing is triggered explicitly
// (a checkpoint) or by SegmentBytes. Sealed segments are immutable, so
// a checkpoint drops the covered prefix by deleting whole files
// (DropThrough) instead of truncating a monolithic log. Recovery scans
// the chain in order; LSNs must continue exactly across segment
// boundaries, and the torn-tail rules apply per segment.
//
// Record layout (all integers big-endian):
//
//	u64 LSN | u8 kind | u32 payloadLen | payload | u32 CRC32(IEEE, of all preceding bytes)
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mview/internal/obs"
)

// Record is one logged entry.
type Record struct {
	LSN     uint64
	Kind    uint8
	Payload []byte
}

const headerLen = 8 + 1 + 4
const crcLen = 4

// MaxPayload bounds record payloads (16 MiB) so a corrupt length field
// cannot trigger huge allocations.
const MaxPayload = 16 << 20

// sealedSeg is an immutable, fully scanned segment awaiting drop.
type sealedSeg struct {
	path    string
	lastLSN uint64 // highest LSN stored in the segment (0 = empty)
}

// Log is an open write-ahead log positioned for appending.
type Log struct {
	f      *os.File // active segment
	path   string   // base path; segments are path.<n> (plus an adopted legacy path)
	seg    int      // active segment number
	size   int64    // valid bytes in the active segment
	sealed []sealedSeg

	// nextLSN and first are atomics so Bounds can be read concurrently
	// with appends (the replication stream server polls it without the
	// durable layer's commit lock). All writers still serialize
	// through the append/checkpoint paths; only the reads are lock-free.
	nextLSN atomic.Uint64
	first   atomic.Uint64 // LSN of the oldest retained record; 0 = none retained
	// Sync controls whether every append is fsynced (durability
	// against OS crashes). Defaults to true; tests and bulk loads may
	// disable it.
	Sync bool
	// SegmentBytes, when positive, seals the active segment once it
	// would exceed this many bytes and rotates to a fresh one. Zero
	// (the default) rotates only on explicit Rotate/Truncate calls.
	// Adjust right after Open; not safe concurrently with Append.
	SegmentBytes int64
	// o holds metric handles once SetObs attaches a registry; nil
	// keeps appends untimed.
	o *logObs
}

// logObs bundles the log's metric handles, resolved once at SetObs.
type logObs struct {
	appendSeconds *obs.Histogram
	fsyncSeconds  *obs.Histogram
	bytesWritten  *obs.Counter
	appends       *obs.Counter
	fsyncs        *obs.Counter
	segments      *obs.Gauge
	segsDropped   *obs.Counter
	appendErrors  *obs.Counter
}

// SetObs attaches a metrics registry to the log: append and fsync
// latency histograms plus byte/record/segment counters. Pass nil to
// detach. Not safe to call concurrently with Append; callers attach it
// right after Open (the durable DB does so under its commit fence).
func (l *Log) SetObs(reg *obs.Registry) {
	if reg == nil {
		l.o = nil
		return
	}
	l.o = &logObs{
		appendSeconds: reg.Histogram("mview_wal_append_seconds",
			"Commit-log append latency including fsync.", nil, nil),
		fsyncSeconds: reg.Histogram("mview_wal_fsync_seconds",
			"Commit-log fsync latency.", nil, nil),
		bytesWritten: reg.Counter("mview_wal_bytes_written_total",
			"Bytes appended to the commit log (framing included).", nil),
		appends: reg.Counter("mview_wal_appends_total",
			"Records appended to the commit log.", nil),
		fsyncs: reg.Counter("mview_wal_fsyncs_total",
			"Commit-log fsyncs. Group commit amortizes one fsync over a whole batch, so under concurrent writers this grows slower than mview_wal_appends_total.", nil),
		segments: reg.Gauge("mview_wal_segments",
			"Commit-log segment files currently on disk (sealed + active).", nil),
		segsDropped: reg.Counter("mview_wal_segments_dropped_total",
			"Sealed commit-log segments deleted after being covered by a checkpoint.", nil),
		appendErrors: reg.Counter("mview_wal_append_errors_total",
			"Commit-log appends that failed (write, fsync, rotation, or a closed log); the statement was not acknowledged.", nil),
	}
	l.o.segments.Set(float64(len(l.sealed) + 1))
}

// segmentFiles returns the on-disk segment chain for the log rooted at
// path, oldest first: the bare legacy file (if present) then numbered
// segments ascending. Missing files yield an empty slice.
func segmentFiles(path string) (bare string, numbered []int, err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil, nil
		}
		return "", nil, err
	}
	for _, ent := range ents {
		name := ent.Name()
		if name == base {
			bare = path
			continue
		}
		if !strings.HasPrefix(name, base+".") {
			continue
		}
		n, convErr := strconv.Atoi(name[len(base)+1:])
		if convErr != nil || n < 0 {
			continue // not a segment (e.g. commit.log.tmp)
		}
		numbered = append(numbered, n)
	}
	sort.Ints(numbered)
	return bare, numbered, nil
}

// SegmentFiles lists the log's on-disk segment chain, oldest first —
// the adopted legacy file (if any) followed by numbered segments. It
// reads the directory only; safe on a closed log.
func SegmentFiles(path string) ([]string, error) {
	bare, nums, err := segmentFiles(path)
	if err != nil {
		return nil, err
	}
	var out []string
	if bare != "" {
		out = append(out, bare)
	}
	for _, n := range nums {
		out = append(out, fmt.Sprintf("%s.%d", path, n))
	}
	return out, nil
}

// Open opens (or creates) the log rooted at path, scans its segment
// chain to find the end of the valid prefix, truncates any torn tail,
// and positions for appending. A bare legacy single-file log at path is
// adopted as the oldest segment (renamed to path.0) transparently.
func Open(path string) (*Log, error) {
	bare, nums, err := segmentFiles(path)
	if err != nil {
		return nil, err
	}
	if bare != "" {
		// One-time migration of the legacy single-file layout: the bare
		// file becomes the oldest numbered segment. Nothing is rewritten,
		// so a crash before or after the rename recovers identically.
		adopted := path + ".0"
		if len(nums) > 0 && nums[0] <= 0 {
			return nil, fmt.Errorf("wal: both legacy %s and segment %s exist; refusing to guess their order", path, adopted)
		}
		if err := os.Rename(path, adopted); err != nil {
			return nil, err
		}
		nums = append([]int{0}, nums...)
	}
	if len(nums) == 0 {
		nums = []int{1}
	}
	l := &Log{path: path, Sync: true}
	l.nextLSN.Store(1)
	var lastLSN, firstSeen uint64
	noteFirst := func(r Record) error {
		if firstSeen == 0 {
			firstSeen = r.LSN
		}
		return nil
	}
	for i, n := range nums {
		segPath := fmt.Sprintf("%s.%d", path, n)
		f, err := os.OpenFile(segPath, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		validEnd, segLast, err := scan(f, lastLSN, 0, noteFirst)
		if err != nil {
			f.Close()
			return nil, err
		}
		lastLSN = segLast
		if validEnd < info.Size() || i == len(nums)-1 {
			// Torn or corrupt tail, or the chain's final segment either
			// way: everything after this point was never acknowledged.
			// Truncate this segment at its valid prefix, delete any later
			// segments, and append here.
			if err := f.Truncate(validEnd); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			for _, later := range nums[i+1:] {
				if err := os.Remove(fmt.Sprintf("%s.%d", path, later)); err != nil {
					f.Close()
					return nil, err
				}
			}
			l.f = f
			l.seg = n
			l.size = validEnd
			break
		}
		// Clean, fully-valid non-final segment: sealed.
		if err := f.Close(); err != nil {
			return nil, err
		}
		l.sealed = append(l.sealed, sealedSeg{path: segPath, lastLSN: segLast})
	}
	l.nextLSN.Store(lastLSN + 1)
	l.first.Store(firstSeen)
	return l, nil
}

// scan reads records from the start of f, invoking fn (when non-nil)
// for each valid record with LSN > fromLSN, and returns the byte offset
// after the last valid record plus the last valid LSN (prevLSN when the
// segment holds none). A torn or corrupt tail terminates the scan
// without error.
//
// prevLSN threads continuity across a segment chain: when non-zero, the
// first record must carry exactly prevLSN+1. When zero (the chain's
// first scanned record), any LSN is accepted — a truncation writes a
// continuity marker carrying the prior high-water mark, and a
// checkpoint may have dropped every earlier segment.
func scan(f *os.File, prevLSN, fromLSN uint64, fn func(Record) error) (validEnd int64, lastLSN uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := io.Reader(f)
	var offset int64
	var header [headerLen]byte
	lastLSN = prevLSN
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return offset, lastLSN, nil // clean EOF or torn header
		}
		lsn := binary.BigEndian.Uint64(header[0:8])
		kind := header[8]
		plen := binary.BigEndian.Uint32(header[9:13])
		// LSNs start at 1 and increase strictly sequentially.
		if plen > MaxPayload || lsn == 0 || (lastLSN != 0 && lsn != lastLSN+1) {
			return offset, lastLSN, nil // corrupt: stop at last valid record
		}
		body := make([]byte, int(plen)+crcLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return offset, lastLSN, nil // torn record
		}
		crc := crc32.NewIEEE()
		crc.Write(header[:])
		crc.Write(body[:plen])
		if crc.Sum32() != binary.BigEndian.Uint32(body[plen:]) {
			return offset, lastLSN, nil // checksum mismatch
		}
		if fn != nil && lsn > fromLSN {
			if err := fn(Record{LSN: lsn, Kind: kind, Payload: body[:plen]}); err != nil {
				return 0, 0, err
			}
		}
		lastLSN = lsn
		offset += int64(headerLen) + int64(plen) + crcLen
	}
}

// frame appends one framed record with the given LSN to buf.
func frame(buf []byte, lsn uint64, kind uint8, payload []byte) []byte {
	start := len(buf)
	var header [headerLen]byte
	binary.BigEndian.PutUint64(header[0:8], lsn)
	header[8] = kind
	binary.BigEndian.PutUint32(header[9:13], uint32(len(payload)))
	buf = append(buf, header[:]...)
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[start:])
	var tail [crcLen]byte
	binary.BigEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...)
}

// syncTimed fsyncs the active segment, timing and counting the fsync.
func (l *Log) syncTimed() error {
	var ts time.Time
	if l.o != nil {
		ts = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if l.o != nil {
		l.o.fsyncSeconds.ObserveDuration(time.Since(ts))
		l.o.fsyncs.Inc()
	}
	return nil
}

// maybeRotate seals the active segment before an append of n framed
// bytes when SegmentBytes is configured and the append would overflow
// it. A non-empty segment always accepts at least one record, so a
// record larger than SegmentBytes still lands (in its own segment).
func (l *Log) maybeRotate(n int64) error {
	if l.SegmentBytes <= 0 || l.size == 0 || l.size+n <= l.SegmentBytes {
		return nil
	}
	return l.Rotate()
}

// AppendHook, when non-nil, runs inside every append after the write
// (stage "written") and after the fsync (stage "synced"). Returning
// ErrSimulatedCrash (or an error wrapping it) aborts with the file left
// exactly as written so far — the process died at that instant. Any
// other error is treated as the corresponding I/O failure and takes the
// rollback path of a real short write. Never set in production code;
// fault-injection tests use it.
var AppendHook func(stage string) error

// ErrSimulatedCrash marks a fault-injection abort (see AppendHook).
var ErrSimulatedCrash = errors.New("wal: simulated crash")

func appendHook(stage string) error {
	if AppendHook == nil {
		return nil
	}
	return AppendHook(stage)
}

// Entry is one record to be appended by AppendBatch.
type Entry struct {
	Kind    uint8
	Payload []byte
}

// Append logs one record and returns its LSN: an AppendBatch of one,
// framed byte-for-byte like any batch member.
func (l *Log) Append(kind uint8, payload []byte) (uint64, error) {
	return l.AppendBatch([]Entry{{Kind: kind, Payload: payload}})
}

// AppendBatch logs all entries as consecutive records with a single
// write and — when Sync is on — a single fsync, returning the LSN of
// the first record. This is the group-commit contract: one group, one
// fsync, amortized over every transaction in the batch. The records
// are ordinary consecutive-LSN records, so recovery replays a group as
// its constituent transactions; a crash mid-batch tears at a record
// boundary at worst (scan stops at the first torn or corrupt record),
// never inside one transaction's record.
//
// On a write or sync failure the log truncates itself back to its
// pre-batch length, so a later append cannot land after a torn batch
// and silently shadow it from recovery; if the truncate also fails the
// error reports the log as broken. Every failed append is counted in
// mview_wal_append_errors_total.
func (l *Log) AppendBatch(entries []Entry) (uint64, error) {
	return l.appendBatch(entries, l.Sync)
}

func (l *Log) appendBatch(entries []Entry, sync bool) (first uint64, err error) {
	if l.o != nil {
		defer func() {
			if err != nil {
				l.o.appendErrors.Inc()
			}
		}()
	}
	if l.f == nil {
		return 0, fmt.Errorf("wal: log closed or broken")
	}
	if len(entries) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	size := 0
	for _, e := range entries {
		if len(e.Payload) > MaxPayload {
			return 0, fmt.Errorf("wal: payload of %d bytes exceeds limit", len(e.Payload))
		}
		size += headerLen + len(e.Payload) + crcLen
	}
	var t0 time.Time
	if l.o != nil {
		t0 = time.Now()
	}
	if err := l.maybeRotate(int64(size)); err != nil {
		return 0, err
	}
	pre := l.size
	first = l.nextLSN.Load()
	buf := make([]byte, 0, size)
	for i, e := range entries {
		buf = frame(buf, first+uint64(i), e.Kind, e.Payload)
	}
	abort := func(err error) (uint64, error) {
		if errors.Is(err, ErrSimulatedCrash) {
			return 0, err // the process died here: leave the file as it lies
		}
		if terr := l.f.Truncate(pre); terr != nil {
			return 0, fmt.Errorf("wal: append failed (%w) and truncating the torn records failed (%v): log broken", err, terr)
		}
		if _, serr := l.f.Seek(pre, io.SeekStart); serr != nil {
			return 0, fmt.Errorf("wal: append failed (%w) and reseeking failed (%v): log broken", err, serr)
		}
		return 0, err
	}
	if _, err := l.f.Write(buf); err != nil {
		return abort(err)
	}
	if err := appendHook("written"); err != nil {
		return abort(err)
	}
	if sync {
		if err := l.syncTimed(); err != nil {
			return abort(err)
		}
		if err := appendHook("synced"); err != nil {
			return abort(err)
		}
	}
	if l.first.Load() == 0 {
		l.first.Store(first)
	}
	l.nextLSN.Store(first + uint64(len(entries)))
	l.size = pre + int64(len(buf))
	if l.o != nil {
		l.o.appendSeconds.ObserveDuration(time.Since(t0))
		l.o.bytesWritten.Add(int64(len(buf)))
		l.o.appends.Add(int64(len(entries)))
	}
	return first, nil
}

// LastLSN returns the LSN of the most recently appended record (0 when
// the log is empty).
func (l *Log) LastLSN() uint64 { return l.nextLSN.Load() - 1 }

// EnsureLSN raises the next LSN to at least min, so numbering stays
// monotonic across a checkpoint that emptied the log.
func (l *Log) EnsureLSN(min uint64) {
	if l.nextLSN.Load() < min {
		l.nextLSN.Store(min)
	}
}

// Bounds reports the log's retained LSN window: oldest is the LSN of
// the oldest record still on disk, next is the LSN the upcoming append
// will take. oldest == next means nothing is retained — records up to
// next-1 existed but were reclaimed (or never written). Both values are
// lock-free loads, safe concurrently with appends; the replication
// stream server uses them to decide whether a follower's resume point
// is still servable or needs a re-sync (Tail returns GapError).
func (l *Log) Bounds() (oldest, next uint64) {
	next = l.nextLSN.Load()
	if f := l.first.Load(); f != 0 {
		return f, next
	}
	return next, next
}

// Rotate seals the active segment (fsyncing it so its contents are
// stable) and starts a new empty one; appends continue there with
// uninterrupted LSN numbering. Sealing an empty segment is a no-op.
// Sealed segments become eligible for DropThrough once a checkpoint
// covers them.
func (l *Log) Rotate() error {
	if l.size == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	sealedPath := fmt.Sprintf("%s.%d", l.path, l.seg)
	l.sealed = append(l.sealed, sealedSeg{path: sealedPath, lastLSN: l.nextLSN.Load() - 1})
	l.seg++
	f, err := os.OpenFile(fmt.Sprintf("%s.%d", l.path, l.seg), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.f = nil
		return fmt.Errorf("wal: rotating to segment %d: %w (log closed)", l.seg, err)
	}
	l.f = f
	l.size = 0
	if l.o != nil {
		l.o.segments.Set(float64(len(l.sealed) + 1))
	}
	return nil
}

// SegmentCount reports the segments currently on disk (sealed plus the
// active one).
func (l *Log) SegmentCount() int { return len(l.sealed) + 1 }

// ActivePath returns the file path of the active (appending) segment.
func (l *Log) ActivePath() string { return fmt.Sprintf("%s.%d", l.path, l.seg) }

// DropThrough deletes sealed segments whose every record has LSN <=
// lsn — the prefix of the chain a checkpoint at lsn has made redundant.
// The active segment is never deleted. Returns how many segment files
// were removed. Deletion stops at the first failure so the chain never
// acquires a hole.
func (l *Log) DropThrough(lsn uint64) (int, error) {
	removed := 0
	var droppedLast uint64
	for len(l.sealed) > 0 && l.sealed[0].lastLSN <= lsn {
		if err := os.Remove(l.sealed[0].path); err != nil && !os.IsNotExist(err) {
			return removed, err
		}
		droppedLast = l.sealed[0].lastLSN
		l.sealed = l.sealed[1:]
		removed++
	}
	if removed > 0 {
		// LSNs are strictly sequential across the chain, so the oldest
		// retained record (if any) is exactly droppedLast+1; when that
		// equals nextLSN the chain holds nothing.
		if newFirst := droppedLast + 1; newFirst >= l.nextLSN.Load() {
			l.first.Store(0)
		} else {
			l.first.Store(newFirst)
		}
	}
	if l.o != nil && removed > 0 {
		l.o.segments.Set(float64(len(l.sealed) + 1))
		l.o.segsDropped.Add(int64(removed))
	}
	return removed, nil
}

// Truncate discards all records (after a checkpoint has made them
// redundant): the active segment is sealed and every sealed segment is
// deleted. LSNs keep increasing monotonically across truncations — the
// high-water mark is persisted as a no-op continuity record, which is
// fsynced even when Sync is off (it is the only durable copy of the
// numbering, and Truncate runs once per checkpoint, so the cost is
// negligible).
func (l *Log) Truncate() error {
	if err := l.Rotate(); err != nil {
		return err
	}
	if _, err := l.DropThrough(l.nextLSN.Load() - 1); err != nil {
		return err
	}
	_, err := l.appendBatch([]Entry{{Kind: KindNoop}}, true)
	return err
}

// KindNoop marks records written only to preserve LSN continuity;
// replay skips them.
const KindNoop uint8 = 0

// Close flushes and closes the active segment. When per-append Sync is
// disabled, buffered appends are fsynced first, so a clean Close never
// loses acknowledged records — disabling Sync only trades durability
// against OS crashes, not clean shutdowns. Close is idempotent.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var syncErr error
	if !l.Sync {
		syncErr = l.f.Sync()
	}
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Replay invokes fn for every valid record with LSN > fromLSN, in
// order across the whole segment chain (including a bare legacy file,
// which is read in place without being adopted). Torn or corrupt tails
// end the replay silently (they were never acknowledged); fn errors
// abort it.
func Replay(path string, fromLSN uint64, fn func(Record) error) error {
	files, err := SegmentFiles(path)
	if err != nil {
		return err
	}
	wrapped := func(r Record) error {
		if r.Kind == KindNoop {
			return nil
		}
		return fn(r)
	}
	var lastLSN uint64
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue // dropped concurrently; nothing acknowledged lives there
			}
			return err
		}
		info, statErr := f.Stat()
		validEnd, segLast, err := scan(f, lastLSN, fromLSN, wrapped)
		f.Close()
		if err != nil {
			return err
		}
		if statErr == nil && validEnd < info.Size() {
			return nil // torn tail: nothing after it was acknowledged
		}
		lastLSN = segLast
	}
	return nil
}
