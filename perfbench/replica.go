package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mview"
	"mview/internal/httpapi"
	"mview/internal/obs"
	"mview/internal/repl"
)

// replicaParams size the replica workload.
type replicaParams struct {
	Rows        int     `json:"r_rows"`       // leader r(A,B) rows, held constant; B is a unique id
	A           int     `json:"a_domain"`     // A is uniform in [0,A)
	Bound       int     `json:"view_bound"`   // v = σ(A < Bound) r
	Rate        float64 `json:"write_rate"`   // open-loop writer, transactions per second
	RecoverReps int     `json:"recover_reps"` // leader reopens timed; recover_s is their median
}

func defaultReplica() replicaParams {
	return replicaParams{Rows: 5000, A: 1000, Bound: 100, Rate: 300, RecoverReps: 5}
}

func replicaViews(p replicaParams) []viewDef {
	return []viewDef{{name: "v", spec: mview.ViewSpec{From: []string{"r"}, Where: fmt.Sprintf("A < %d", p.Bound)}}}
}

type replicaSession struct {
	e        *env
	p        replicaParams
	dir      string
	leader   *mview.DB
	follower *mview.DB
	lsrv     *server // leader API and replication routes
	fsrv     *server // follower API
	stream   *byteCounter
	repl     *repl.Server
	views    []viewDef
	rec      *spanRecorder // nil when untraced

	rng  *rand.Rand
	next int64      // next B the writer inserts
	inV  [][2]int64 // rows of v the writer deletes, oldest first from head
	head int
}

func setupReplica(p replicaParams) setupFunc {
	return func(e *env, rec *recorders) (session, error) {
		s := &replicaSession{e: e, p: p, views: replicaViews(p)}
		if err := s.setup(rec); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
}

func (s *replicaSession) setup(rec *recorders) error {
	var err error
	if s.dir, err = os.MkdirTemp(s.e.workDir, "replica-"); err != nil {
		return err
	}
	var ltr, ftr obs.Tracer
	if rec != nil {
		ltr, ftr, s.rec = rec.leader, rec.follower, rec.leader
	}
	reg := obs.NewRegistry()
	if s.leader, err = mview.OpenDurable(s.dir, mview.WithGroupCommit(0, groupWindow), mview.WithObs(reg, ltr)); err != nil {
		return err
	}
	// The leader logs without fsync: this workload measures the stream,
	// apply and read path, and a per-transaction fsync on a shared disk
	// made its latencies swing by more than any bound could allow.
	// ingest measures the fsync path.
	s.leader.SetLogSync(false)
	if err := s.leader.CreateRelation("r", "A", "B"); err != nil {
		return err
	}
	s.rng = rand.New(rand.NewSource(s.e.seed))
	ops := make([]mview.Op, 0, s.p.Rows)
	for b := 0; b < s.p.Rows; b++ {
		a := int64(s.rng.Intn(s.p.A))
		ops = append(ops, mview.Insert("r", a, int64(b)))
		if a < int64(s.p.Bound) {
			s.inV = append(s.inV, [2]int64{a, int64(b)})
		}
	}
	s.next = int64(s.p.Rows)
	if _, err := s.leader.Exec(ops...); err != nil {
		return err
	}
	if err := createViews(s.leader, s.views); err != nil {
		return err
	}
	if err := s.leader.Checkpoint(); err != nil {
		return err
	}
	if s.repl, err = s.leader.ReplicationServer(); err != nil {
		return err
	}
	s.stream = &byteCounter{next: httpapi.NewWith(s.leader, httpapi.WithObs(reg, ltr), httpapi.WithReplication(s.repl)), prefix: "/v1/replication/stream"}
	if s.lsrv, err = serve(s.stream); err != nil {
		return err
	}
	freg := obs.NewRegistry()
	if s.follower, err = mview.OpenFollower(s.lsrv.url, "perfbench", mview.WithObs(freg, ftr)); err != nil {
		return err
	}
	if err := s.converge(); err != nil {
		return err
	}
	s.fsrv, err = serve(httpapi.NewWith(s.follower, httpapi.WithObs(freg, ftr)))
	return err
}

// converge waits until the follower's contents equal the leader's.
func (s *replicaSession) converge() error {
	const limit = 20 * time.Second
	want, err := readContents(s.leader)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(limit)
	for {
		got, err := readContents(s.follower)
		if err == nil {
			if err = sameContents("follower", want, got); err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			st, _ := s.follower.FollowerStatus()
			return fmt.Errorf("follower did not converge in %v (state %s, applied %d, leader %d): %w", limit, st.State, st.AppliedLSN, st.LeaderLSN, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *replicaSession) close() {
	if s.fsrv != nil {
		s.fsrv.close()
		s.fsrv = nil
	}
	if s.follower != nil {
		_ = s.follower.Close()
		s.follower = nil
	}
	if s.lsrv != nil {
		s.lsrv.close()
		s.lsrv = nil
	}
	if s.leader != nil {
		_ = s.leader.Close()
		s.leader = nil
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

func (s *replicaSession) measure(d time.Duration) (*phase, error) {
	ph := &phase{}

	// Commit-to-visible: from a write's due time until the follower's
	// subscriber receives its row. Every insert enters v.
	var vis latencies
	var pmu sync.Mutex
	pending := map[int64]time.Time{}
	cancel, err := s.follower.Subscribe("v", func(ch mview.Change) {
		now := time.Now()
		pmu.Lock()
		defer pmu.Unlock()
		for _, r := range ch.Inserts {
			if t, ok := pending[r.Values[1]]; ok {
				vis.add(now, now.Sub(t))
				delete(pending, r.Values[1])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	defer cancel()

	var writeLat, lateLat, readLat latencies
	var attempted, failed, viewBytes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fBefore, lBefore, rt0 := capture(s.follower), capture(s.leader), readRuntime()
	span0 := s.rec.total("diffeval.compute")
	bytes0 := s.stream.n.Load()
	t0 := time.Now()

	// Replication lag in records: the leader's durable position minus
	// the follower's applied one.
	var lags []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				lead := s.repl.LeaderLSN()
				if st, ok := s.follower.FollowerStatus(); ok && lead >= st.AppliedLSN {
					lags = append(lags, float64(lead-st.AppliedLSN))
				}
			}
		}
	}()

	// The reader: closed loop against the follower.
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := newClient()
		defer hc.CloseIdleConnections()
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			attempted.Add(1)
			n, err := getView(hc, s.fsrv.url, "v")
			if err != nil {
				failed.Add(1)
				s.e.logf("replica read: %v", err)
				continue
			}
			now := time.Now()
			readLat.add(now, now.Sub(start))
			viewBytes.Add(n)
		}
	}()

	// The writer: open loop, each request timed from when it was due.
	hc := newClient()
	period := time.Duration(float64(time.Second) / s.p.Rate)
	n := int(float64(d) / float64(period))
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * period)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		lateLat.add(sent, sent.Sub(due))
		ins := [2]int64{int64(s.rng.Intn(s.p.Bound)), s.next}
		del := s.inV[s.head]
		pmu.Lock()
		pending[ins[1]] = due
		pmu.Unlock()
		attempted.Add(1)
		if err := post(hc, s.lsrv.url, execBody(op{true, "r", ins[:]}, op{false, "r", del[:]})); err != nil {
			failed.Add(1)
			s.e.logf("replica write: %v", err)
			continue
		}
		now := time.Now()
		writeLat.add(now, now.Sub(due))
		s.next++
		s.inV = append(s.inV, ins)
		s.head++
	}
	hc.CloseIdleConnections()
	ph.writeSecs = time.Since(t0).Seconds()
	ph.readSecs = ph.writeSecs
	close(stop)
	wg.Wait()
	ph.rt = runtimeSince(rt0)
	ph.computeS = (s.rec.total("diffeval.compute") - span0).Seconds()

	ph.gate(s.converge())
	ph.leader = counterDelta{lBefore, capture(s.leader)}
	ph.follower = counterDelta{fBefore, capture(s.follower)}
	ph.reads = ph.follower
	ph.streamBytes = s.stream.n.Load() - bytes0
	ph.summarize(writeLat.take(t0), readLat.take(t0), vis.take(t0), lateLat.take(t0))
	ph.heapMB = liveHeapMB()
	ph.lagLSN = lags
	ph.attempted, ph.failed, ph.viewBytes = attempted.Load(), failed.Load(), viewBytes.Load()
	// Single late sends are normal: a slow request delays the next few.
	// A writer late on most sends did not offer the scheduled load.
	if late := time.Duration(ph.fig.lateP50 * float64(time.Second)); late > period {
		ph.invalid = fmt.Sprintf("the writer fell behind its schedule: median send lateness %v exceeds the %v period", late, period)
	}
	pmu.Lock()
	if len(pending) > 0 {
		ph.gate(fmt.Errorf("visibility: %d acknowledged rows never reached the follower's subscriber", len(pending)))
	}
	pmu.Unlock()
	st, _ := s.follower.FollowerStatus()
	ph.resyncs = float64(st.Resyncs)
	if st.Resyncs != 0 {
		ph.gate(fmt.Errorf("follower re-synced %d times", st.Resyncs))
	}
	ph.gate(checkOracle(s.leader, s.views))
	ph.gate(checkOracle(s.follower, s.views))
	ph.gate(s.recover(ph))
	return ph, nil
}

// recover stops the follower and the servers, closes the leader and
// times reopening it: checkpoint load plus replay of the run's log.
func (s *replicaSession) recover(ph *phase) error {
	pre, err := readContents(s.leader)
	if err != nil {
		return err
	}
	s.fsrv.close()
	s.fsrv = nil
	if err := s.follower.Close(); err != nil {
		return err
	}
	s.follower = nil
	s.lsrv.close()
	s.lsrv = nil
	if err := s.leader.Close(); err != nil {
		return err
	}
	s.leader = nil

	return timeRecovery(ph, s.dir, s.p.RecoverReps, pre, s.views)
}
