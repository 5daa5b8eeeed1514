package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mview/internal/obs"
	"mview/internal/wal"
)

// walSource backs a Server with a real segmented WAL; its snapshot
// stream is a trivial encoding of "state up to LSN n" (the root
// package supplies the real snapshot codec — the protocol does not
// care what the bytes are).
type walSource struct {
	l *wal.Log
	p string

	mu      sync.Mutex
	snapLSN uint64 // position WriteSnapshot reports
}

func newWalSource(t *testing.T) *walSource {
	t.Helper()
	p := filepath.Join(t.TempDir(), "wal.log")
	l, err := wal.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	t.Cleanup(func() { l.Close() })
	return &walSource{l: l, p: p}
}

func (s *walSource) Bounds() (uint64, uint64) { return s.l.Bounds() }
func (s *walSource) LastLSN() uint64          { return s.l.LastLSN() }
func (s *walSource) OpenTail(from uint64) (*wal.Tail, error) {
	return wal.OpenTail(s.p, from)
}
func (s *walSource) WriteSnapshot(w io.Writer) (uint64, error) {
	s.mu.Lock()
	lsn := s.snapLSN
	s.mu.Unlock()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(lsn >> (56 - 8*i))
	}
	_, err := w.Write(buf[:])
	return lsn, err
}

// setSnapshotLSN simulates a checkpoint at the given position.
func (s *walSource) setSnapshotLSN(lsn uint64) {
	s.mu.Lock()
	s.snapLSN = lsn
	s.mu.Unlock()
}

// memApplier accumulates applied records; Bootstrap resets to the
// snapshot position from the walSource's 8-byte stream.
type memApplier struct {
	mu      sync.Mutex
	applied uint64
	recs    []wal.Record
	boots   int
	failOn  uint64 // Apply fails when it sees this LSN (divergence sim)
}

func (a *memApplier) Bootstrap(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	var lsn uint64
	for _, b := range buf {
		lsn = lsn<<8 | uint64(b)
	}
	a.mu.Lock()
	a.applied = lsn
	a.recs = nil
	a.boots++
	a.mu.Unlock()
	return lsn, nil
}

func (a *memApplier) Apply(recs []wal.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range recs {
		if a.failOn != 0 && r.LSN == a.failOn {
			return errors.New("injected apply failure")
		}
		if r.LSN != a.applied+1 {
			return fmt.Errorf("out-of-order record %d after %d", r.LSN, a.applied)
		}
		p := append([]byte(nil), r.Payload...)
		a.recs = append(a.recs, wal.Record{LSN: r.LSN, Kind: r.Kind, Payload: p})
		a.applied = r.LSN
	}
	return nil
}

func (a *memApplier) AppliedLSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

func (a *memApplier) snapshot() (uint64, []wal.Record, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied, append([]wal.Record(nil), a.recs...), a.boots
}

func fastServer(src Source) *Server {
	s := NewServer(src)
	s.Poll = 200 * time.Microsecond
	s.Heartbeat = 5 * time.Millisecond
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestFrameRoundTrip(t *testing.T) {
	recs := []wal.Record{
		{LSN: 1, Kind: 1, Payload: []byte("alpha")},
		{LSN: 2, Kind: 0, Payload: nil},
		{LSN: 3, Kind: 7, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameRecords, encodeRecords(7, recs)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameHeartbeat, encodeHeartbeat(Heartbeat{LastLSN: 42, UnixNano: 99})); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameGap, encodeGap(Gap{Oldest: 17})); err != nil {
		t.Fatal(err)
	}

	typ, p, err := readFrame(&buf)
	if err != nil || typ != frameRecords {
		t.Fatalf("frame 1 = (%d, %v)", typ, err)
	}
	leaderLSN, got, err := decodeRecords(p)
	if err != nil {
		t.Fatal(err)
	}
	if leaderLSN != 7 {
		t.Fatalf("decoded leader LSN = %d, want 7", leaderLSN)
	}
	if len(got) != 3 || got[0].LSN != 1 || string(got[0].Payload) != "alpha" || got[2].LSN != 3 || len(got[2].Payload) != 1000 {
		t.Fatalf("decoded records = %+v", got)
	}
	typ, p, err = readFrame(&buf)
	if err != nil || typ != frameHeartbeat {
		t.Fatalf("frame 2 = (%d, %v)", typ, err)
	}
	hb, err := decodeHeartbeat(p)
	if err != nil || hb.LastLSN != 42 || hb.UnixNano != 99 {
		t.Fatalf("heartbeat = %+v, %v", hb, err)
	}
	typ, p, err = readFrame(&buf)
	if err != nil || typ != frameGap {
		t.Fatalf("frame 3 = (%d, %v)", typ, err)
	}
	gap, err := decodeGap(p)
	if err != nil || gap.Oldest != 17 {
		t.Fatalf("gap = %+v, %v", gap, err)
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameRecords, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[frameHeaderLen] ^= 0xFF // flip a payload byte
	if _, _, err := readFrame(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupt frame passed CRC")
	}
	// Torn frame: cut the stream mid-body.
	if _, _, err := readFrame(bytes.NewReader(buf.Bytes()[:4])); err == nil {
		t.Fatal("torn header passed")
	}
}

// TestRecordsPayloadTruncationIsAnError: every truncation of a records
// payload — including a header too short to hold the leader LSN and
// the record count — decodes to an error, never a panic, and a count
// the payload cannot hold is refused before anything is allocated.
func TestRecordsPayloadTruncationIsAnError(t *testing.T) {
	p := encodeRecords(9, []wal.Record{{LSN: 1, Kind: 1, Payload: []byte("alpha")}, {LSN: 2, Kind: 1}})
	for cut := 0; cut < len(p); cut++ {
		if _, _, err := decodeRecords(p[:cut]); err == nil {
			t.Fatalf("payload cut to %d of %d bytes decoded without error", cut, len(p))
		}
	}
	huge := encodeRecords(9, nil)
	huge[8], huge[9], huge[10], huge[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := decodeRecords(huge); err == nil {
		t.Fatal("a 2^32-1 record count in an empty payload decoded without error")
	}
}

// gatedApplier holds every Apply until gate closes.
type gatedApplier struct {
	*memApplier
	gate chan struct{}
}

func (a gatedApplier) Apply(recs []wal.Record) error {
	<-a.gate
	return a.memApplier.Apply(recs)
}

// TestLagReportedWhileApplyIsHeldBack: a follower whose Apply is held
// back reports its lag while records stream. The leader's high-water
// mark rides every records frame; heartbeats are disabled here, so
// nothing else could carry it.
func TestLagReportedWhileApplyIsHeldBack(t *testing.T) {
	src := newWalSource(t)
	for i := 1; i <= 5; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv := fastServer(src)
	srv.Heartbeat = time.Hour
	a := gatedApplier{memApplier: &memApplier{}, gate: make(chan struct{})}
	var release sync.Once
	c := NewClient("f", LocalTransport{S: srv}, a)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c.Run(ctx)
	}()
	defer func() {
		release.Do(func() { close(a.gate) })
		cancel()
		<-done
	}()

	waitFor(t, "lag reported while apply is held back", func() bool {
		st := c.Status()
		return st.AppliedLSN == 0 && st.LeaderLSN == 5 && st.LagLSN == 5
	})
	release.Do(func() { close(a.gate) })
	waitFor(t, "follower to catch up", func() bool {
		st := c.Status()
		return st.AppliedLSN == 5 && st.LagLSN == 0
	})
}

// TestStreamDeliversAndFollowsAppends: a client over LocalTransport
// receives existing records, then live appends, and acks its position.
func TestStreamDeliversAndFollowsAppends(t *testing.T) {
	src := newWalSource(t)
	for i := 1; i <= 3; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv := fastServer(src)
	app := &memApplier{applied: 0}
	// Pretend a bootstrap already happened at LSN 0 (valid from-scratch
	// stream) by seeding applied via a snapshot at 0.
	cl := NewClient("f1", LocalTransport{S: srv}, app)
	cl.RetryMin = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); cl.Run(ctx) }()

	waitFor(t, "initial catch-up", func() bool { return app.AppliedLSN() == 3 })
	for i := 4; i <= 6; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "live records", func() bool { return app.AppliedLSN() == 6 })
	waitFor(t, "ack to reach server", func() bool {
		sts := srv.Status()
		return len(sts) == 1 && sts[0].AckLSN == 6 && sts[0].LagLSN == 0
	})
	_, recs, boots := app.snapshot()
	if len(recs) != 6 {
		t.Fatalf("applied %d records, want 6", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || !bytes.Equal(r.Payload, []byte{byte(i + 1)}) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if boots != 1 {
		t.Fatalf("bootstraps = %d, want 1 (initial only)", boots)
	}
	cancel()
	<-done
}

// TestGapForcesResync: reclaiming segments a follower still needs
// produces a gap frame and the client re-syncs from a snapshot — never
// a silent skip.
func TestGapForcesResync(t *testing.T) {
	src := newWalSource(t)
	srv := fastServer(src)
	app := &memApplier{}
	cl := NewClient("f1", LocalTransport{S: srv}, app)
	cl.RetryMin = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go cl.Run(ctx)

	for i := 1; i <= 2; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "catch-up to 2", func() bool { return app.AppliedLSN() == 2 })

	// Leader checkpoints at 6 and reclaims 1-6 while the follower's
	// stream was... somewhere else. Simulate by stopping the follower
	// first (cancel), moving the log, then restarting a fresh client at
	// the stale position.
	cancel()
	for i := 3; i <= 6; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.l.Append(1, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.l.DropThrough(6); err != nil {
		t.Fatal(err)
	}
	src.setSnapshotLSN(6) // checkpoint covers through 6

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done := make(chan struct{})
	go func() { defer close(done); cl.Run(ctx2) }()

	waitFor(t, "resync + catch-up", func() bool {
		applied, _, boots := app.snapshot()
		return boots >= 1 && applied == 7
	})
	applied, recs, _ := app.snapshot()
	if applied != 7 {
		t.Fatalf("applied = %d, want 7", applied)
	}
	// Post-resync the applier holds only records after the snapshot.
	if len(recs) != 1 || recs[0].LSN != 7 {
		t.Fatalf("post-resync records = %+v, want just LSN 7", recs)
	}
	st := cl.Status()
	if st.Resyncs == 0 {
		t.Fatalf("status reports no resyncs: %+v", st)
	}
	cancel2()
	<-done
}

// TestApplyDivergenceForcesResync: an apply error triggers a fresh
// bootstrap rather than continuing on a diverged replica.
func TestApplyDivergenceForcesResync(t *testing.T) {
	src := newWalSource(t)
	srv := fastServer(src)
	app := &memApplier{failOn: 2}
	cl := NewClient("f1", LocalTransport{S: srv}, app)
	cl.RetryMin = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go cl.Run(ctx)

	// Let the initial bootstrap land at snapLSN 0 and record 1 apply
	// before arming the rest, so the divergence at LSN 2 is guaranteed
	// to ship through the stream.
	if _, err := src.l.Append(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "record 1 applied", func() bool { return app.AppliedLSN() == 1 })
	// The apply of LSN 2 fails; the resync bootstraps at snapLSN 3
	// (simulating the leader having checkpointed meanwhile) and streams
	// cleanly from there.
	src.setSnapshotLSN(3)
	for i := 2; i <= 3; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "resync after divergence", func() bool {
		applied, _, boots := app.snapshot()
		return boots >= 2 && applied >= 3
	})
	if st := cl.Status(); st.Resyncs == 0 {
		t.Fatalf("no resync recorded: %+v", st)
	}
	cancel()
}

// TestStreamWriteHookDropsStreamAndClientResumes: the failover fault
// hook kills the stream mid-flight; the client reconnects and resumes
// from its applied position with no loss or duplication.
func TestStreamWriteHookDropsStreamAndClientResumes(t *testing.T) {
	src := newWalSource(t)
	srv := fastServer(src)
	app := &memApplier{}
	cl := NewClient("f1", LocalTransport{S: srv}, app)
	cl.RetryMin = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go cl.Run(ctx)

	for i := 1; i <= 2; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "catch-up", func() bool { return app.AppliedLSN() == 2 })

	// Kill every stream write once; the active stream dies on its next
	// frame (heartbeat or records).
	var once sync.Once
	tripped := make(chan struct{})
	SetStreamWriteHook(func(id string) error {
		var err error
		once.Do(func() {
			err = errors.New("injected stream failure")
			close(tripped)
		})
		return err
	})
	defer SetStreamWriteHook(nil)
	<-tripped

	for i := 3; i <= 5; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "resume after drop", func() bool { return app.AppliedLSN() == 5 })
	_, recs, boots := app.snapshot()
	if boots != 1 {
		t.Fatalf("reconnect caused %d bootstraps, want 1 (resume, not resync)", boots)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d (loss or duplication)", i, r.LSN)
		}
	}
	if st := cl.Status(); st.Reconnects == 0 {
		t.Fatalf("no reconnect recorded: %+v", st)
	}
	cancel()
}

// TestLagMetricsAndForget: acks drive the per-follower gauges;
// RefreshMetrics ages lag for silent followers; Forget deletes the
// series.
func TestLagMetricsAndForget(t *testing.T) {
	src := newWalSource(t)
	srv := fastServer(src)
	reg := obs.NewRegistry()
	srv.SetObs(reg)

	for i := 1; i <= 4; i++ {
		if _, err := src.l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Ack("f1", 2)
	srv.RefreshMetrics()
	lbl := obs.Labels{"follower": "f1"}
	if v := reg.Gauge("mview_repl_lag_lsn", "", lbl).Value(); v != 2 {
		t.Fatalf("lag_lsn = %v, want 2", v)
	}
	srv.Ack("f1", 4)
	srv.RefreshMetrics()
	if v := reg.Gauge("mview_repl_lag_lsn", "", lbl).Value(); v != 0 {
		t.Fatalf("lag_lsn after full ack = %v, want 0", v)
	}
	if v := reg.Gauge("mview_repl_lag_seconds", "", lbl).Value(); v != 0 {
		t.Fatalf("lag_seconds while caught up = %v, want 0", v)
	}
	sts := srv.Status()
	if len(sts) != 1 || sts[0].ID != "f1" || sts[0].AckLSN != 4 {
		t.Fatalf("status = %+v", sts)
	}

	srv.Forget("f1")
	if len(srv.Status()) != 0 {
		t.Fatal("follower survived Forget")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`follower="f1"`)) {
		t.Fatalf("forgotten follower still in exposition:\n%s", buf.String())
	}
}
