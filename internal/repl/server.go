package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/obs"
	"mview/internal/wal"
)

// Source is the leader database's replication surface: the live WAL
// window, a tail over it, and a consistent snapshot stream for
// follower bootstrap. The root mview package implements it.
type Source interface {
	// Bounds is the WAL's retained window (oldest retained LSN, next
	// LSN); oldest == next means nothing retained.
	Bounds() (oldest, next uint64)
	// LastLSN is the durable high-water mark: every record at or below
	// it is fully written and fsynced, and will never be rolled back.
	LastLSN() uint64
	// OpenTail opens a WAL tail positioned after LSN from. It returns
	// *wal.GapError when from's successor was reclaimed.
	OpenTail(from uint64) (*wal.Tail, error)
	// WriteSnapshot streams a consistent snapshot paired with the WAL
	// position it reflects (also embedded in the stream itself).
	WriteSnapshot(w io.Writer) (lsn uint64, err error)
}

// streamWriteHook, when set, runs before every frame write on every
// stream, letting the failover test kill a leader mid-stream at a
// frame boundary of its choosing. Atomic because tests arm it while
// streams are live.
var streamWriteHook atomic.Pointer[func(followerID string) error]

// SetStreamWriteHook installs (or, with nil, clears) the stream fault
// hook. A hook returning an error aborts the stream with it.
func SetStreamWriteHook(fn func(followerID string) error) {
	if fn == nil {
		streamWriteHook.Store(nil)
		return
	}
	streamWriteHook.Store(&fn)
}

// FollowerStatus is one follower's replication position as the leader
// sees it, exported on /v1/replication/status and /debug/stats.
type FollowerStatus struct {
	ID         string  `json:"id"`
	AckLSN     uint64  `json:"ack_lsn"`
	LagLSN     uint64  `json:"lag_lsn"`
	LagSeconds float64 `json:"lag_seconds"`
	Streams    int     `json:"streams"`
	AckAgeSecs float64 `json:"ack_age_seconds"`
}

type followerInfo struct {
	ackLSN  uint64
	ackAt   time.Time
	streams int
}

// Server streams WAL records to followers and tracks their positions.
// One Server fronts one leader database; it is safe for concurrent use
// (each follower stream runs on its own goroutine, typically an HTTP
// handler).
type Server struct {
	src Source

	// BatchMax caps records per frame; BatchBytes soft-caps frame
	// payload bytes. Poll is the idle re-check interval when a stream
	// is caught up; Heartbeat is the maximum quiet time before an idle
	// stream emits a heartbeat frame. Zero values select defaults.
	BatchMax   int
	BatchBytes int
	Poll       time.Duration
	Heartbeat  time.Duration

	mu        sync.Mutex
	followers map[string]*followerInfo
	reg       *obs.Registry
}

// NewServer wraps a leader's replication source.
func NewServer(src Source) *Server {
	return &Server{
		src:        src,
		BatchMax:   256,
		BatchBytes: 1 << 20,
		Poll:       2 * time.Millisecond,
		Heartbeat:  500 * time.Millisecond,
		followers:  make(map[string]*followerInfo),
	}
}

// SetObs attaches a metrics registry: per-follower gauges
// mview_repl_lag_lsn and mview_repl_lag_seconds (labelled follower=ID)
// plus the stream counters. Call RefreshMetrics before scraping to
// bring the lag gauges up to now.
func (s *Server) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
}

const (
	lagLSNName = "mview_repl_lag_lsn"
	lagLSNHelp = "Replication lag in LSNs per follower (leader durable LSN minus last acknowledged)."
	lagSecName = "mview_repl_lag_seconds"
	lagSecHelp = "Replication lag in seconds per follower (0 when caught up, else age of the last acknowledgement)."
	ackLSNName = "mview_repl_follower_ack_lsn"
	ackLSNHelp = "Last LSN each follower acknowledged as applied."
)

// Ack records a follower's applied position. Followers post it after
// every applied batch and on every heartbeat, so an idle-but-alive
// follower keeps its lag at zero.
func (s *Server) Ack(id string, lsn uint64) {
	now := time.Now()
	s.mu.Lock()
	f := s.follower(id)
	if lsn > f.ackLSN {
		f.ackLSN = lsn
	}
	f.ackAt = now
	reg := s.reg
	ack := f.ackLSN
	s.mu.Unlock()
	if reg != nil {
		last := s.src.LastLSN()
		lbl := obs.Labels{"follower": id}
		reg.Gauge(ackLSNName, ackLSNHelp, lbl).Set(float64(ack))
		reg.Gauge(lagLSNName, lagLSNHelp, lbl).Set(float64(lagLSN(last, ack)))
		reg.Gauge(lagSecName, lagSecHelp, lbl).Set(0)
	}
}

// follower returns (creating if needed) the registry entry; s.mu held.
func (s *Server) follower(id string) *followerInfo {
	f, ok := s.followers[id]
	if !ok {
		f = &followerInfo{}
		s.followers[id] = f
	}
	return f
}

func lagLSN(last, ack uint64) uint64 {
	if ack >= last {
		return 0
	}
	return last - ack
}

// RefreshMetrics re-computes the lag gauges against the leader's
// current position — lag grows while a follower is silent, which a
// Set-on-ack gauge alone would miss. The metrics endpoints call it
// before rendering.
func (s *Server) RefreshMetrics() {
	s.mu.Lock()
	reg := s.reg
	type ent struct {
		id string
		f  followerInfo
	}
	var ents []ent
	for id, f := range s.followers {
		ents = append(ents, ent{id, *f})
	}
	s.mu.Unlock()
	if reg == nil {
		return
	}
	last := s.src.LastLSN()
	now := time.Now()
	for _, e := range ents {
		lbl := obs.Labels{"follower": e.id}
		lag := lagLSN(last, e.f.ackLSN)
		reg.Gauge(lagLSNName, lagLSNHelp, lbl).Set(float64(lag))
		sec := 0.0
		if lag > 0 && !e.f.ackAt.IsZero() {
			sec = now.Sub(e.f.ackAt).Seconds()
		}
		reg.Gauge(lagSecName, lagSecHelp, lbl).Set(sec)
	}
}

// Status lists every follower the leader has heard from, sorted by ID.
func (s *Server) Status() []FollowerStatus {
	last := s.src.LastLSN()
	now := time.Now()
	s.mu.Lock()
	out := make([]FollowerStatus, 0, len(s.followers))
	for id, f := range s.followers {
		st := FollowerStatus{
			ID:      id,
			AckLSN:  f.ackLSN,
			LagLSN:  lagLSN(last, f.ackLSN),
			Streams: f.streams,
		}
		if !f.ackAt.IsZero() {
			st.AckAgeSecs = now.Sub(f.ackAt).Seconds()
			if st.LagLSN > 0 {
				st.LagSeconds = st.AckAgeSecs
			}
		}
		out = append(out, st)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Forget drops a follower from the registry and deletes its gauges
// (used when an operator retires a replica; a reconnect re-registers).
func (s *Server) Forget(id string) {
	s.mu.Lock()
	delete(s.followers, id)
	reg := s.reg
	s.mu.Unlock()
	if reg != nil {
		lbl := obs.Labels{"follower": id}
		reg.Delete(lagLSNName, lbl)
		reg.Delete(lagSecName, lbl)
		reg.Delete(ackLSNName, lbl)
	}
}

// Snapshot streams a bootstrap snapshot to w, returning the WAL
// position it reflects.
func (s *Server) Snapshot(w io.Writer) (uint64, error) {
	return s.src.WriteSnapshot(w)
}

// LeaderLSN exposes the source's durable high-water mark.
func (s *Server) LeaderLSN() uint64 { return s.src.LastLSN() }

// StreamTo streams frames to w from LSN from until ctx is cancelled or
// the writer fails (a follower that disconnects surfaces as a write
// error; a slow follower blocks the write and thereby backpressures its
// own stream — no buffering beyond the transport's own). When the
// requested position has been reclaimed it sends one gap frame and
// returns nil: re-syncing is the follower's move.
//
// w is flushed after every frame when it implements http.Flusher, so a
// chunked HTTP response delivers each frame immediately.
func (s *Server) StreamTo(ctx context.Context, id string, from uint64, w io.Writer) error {
	s.mu.Lock()
	f := s.follower(id)
	f.streams++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		f.streams--
		s.mu.Unlock()
	}()

	flusher, _ := w.(http.Flusher)
	emit := func(typ uint8, payload []byte) error {
		if h := streamWriteHook.Load(); h != nil {
			if err := (*h)(id); err != nil {
				return err
			}
		}
		if err := writeFrame(w, typ, payload); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	// gapAt reports whether position pos can continue on this WAL: its
	// successor must still be retained (pos+1 >= oldest; when nothing
	// is retained oldest == next, so any lagging pos is a gap), and pos
	// must not be ahead of the leader (a follower of a previous
	// incarnation whose history this leader does not have).
	gapAt := func(pos uint64) (Gap, bool) {
		oldest, next := s.src.Bounds()
		if pos+1 < oldest || pos >= next {
			return Gap{Oldest: oldest}, true
		}
		return Gap{}, false
	}

	// A reclaimed resume position is answered explicitly, never by
	// silently streaming the surviving suffix.
	if gap, ok := gapAt(from); ok {
		return emit(frameGap, encodeGap(gap))
	}

	// The disk-level gap detection inside OpenTail/Tail.Next is a
	// backstop that cannot tell "everything before from was reclaimed"
	// from "the chain holds no records at all right now" — the latter
	// happens whenever a checkpoint reclaims every sealed segment while
	// the freshly-rotated active segment is still empty, with the
	// follower exactly caught up. Bounds is authoritative in-process, so
	// a disk-level GapError is honored only when gapAt agrees; otherwise
	// the stream waits for the next append and retries.
	var tail *wal.Tail
	defer func() {
		if tail != nil {
			tail.Close()
		}
	}()

	lastSent := time.Now()
	idle := func() error {
		if time.Since(lastSent) >= s.Heartbeat {
			hb := Heartbeat{LastLSN: s.src.LastLSN(), UnixNano: time.Now().UnixNano()}
			if err := emit(frameHeartbeat, encodeHeartbeat(hb)); err != nil {
				return err
			}
			lastSent = time.Now()
		}
		select {
		case <-ctx.Done():
		case <-time.After(s.Poll):
		}
		return nil
	}
	pos := from
	for {
		if err := ctx.Err(); err != nil {
			return nil // clean shutdown
		}
		if tail != nil {
			pos = tail.Pos()
		}
		// Bounds is the authoritative in-process gap check: the tail's
		// own detection can lag reclamation by one poll.
		if gap, ok := gapAt(pos); ok {
			return emit(frameGap, encodeGap(gap))
		}
		if tail == nil {
			t, err := s.src.OpenTail(pos)
			if err != nil {
				var gap *wal.GapError
				if !errors.As(err, &gap) {
					return fmt.Errorf("repl: opening tail at %d: %w", pos, err)
				}
				// gapAt(pos) said serveable above, so this is the
				// transient empty-chain case: idle until records appear.
				if err := idle(); err != nil {
					return err
				}
				continue
			}
			t.MaxBytes = s.BatchBytes
			tail = t
		}
		last := s.src.LastLSN()
		recs, err := tail.Next(s.BatchMax, last)
		if err != nil {
			var gap *wal.GapError
			if errors.As(err, &gap) {
				if g, ok := gapAt(tail.Pos()); ok {
					return emit(frameGap, encodeGap(g))
				}
				// Disk raced reclamation mid-stream; reopen from the
				// last delivered position.
				tail.Close()
				tail = nil
				if err := idle(); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("repl: tailing after %d: %w", tail.Pos(), err)
		}
		if len(recs) > 0 {
			if err := emit(frameRecords, encodeRecords(last, recs)); err != nil {
				return err
			}
			lastSent = time.Now()
			continue
		}
		// Caught up: idle-wait, heartbeating so the follower can tell a
		// quiet leader from a dead one (and keep its lag metrics fresh).
		if err := idle(); err != nil {
			return err
		}
	}
}
