package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"mview"
	"mview/internal/obs"
)

// fanoutParams size the fanout workload.
type fanoutParams struct {
	Rows        int     `json:"r_rows"`       // r(A,B,C) rows, held constant
	SRows       int     `json:"s_rows"`       // s(C,D) rows; C is its key
	SelectViews int     `json:"select_views"` // σ(A in band && B > C) r
	JoinViews   int     `json:"join_views"`   // π_ABD σ(A in band && D < 10)(r ⋈ s)
	Band        int     `json:"band"`         // width of every view's A band
	BC          int     `json:"bc_domain"`    // B and C are uniform in [0,BC)
	D           int     `json:"d_domain"`     // D cycles through [0,D) in shuffled order; joins keep D < 10
	TxChurn     int     `json:"tx_churn"`     // tuples each transaction deletes, and inserts
	LoadReps    int     `json:"load_reps"`    // timed Loads of the saved image; recover_s is their median
	ReadShare   float64 `json:"read_share"`   // share of the measured time spent reading, half before and half after the writes
}

func defaultFanout() fanoutParams {
	return fanoutParams{Rows: 20_000, SRows: 200, SelectViews: 32, JoinViews: 8, Band: 32, BC: 200, D: 100,
		TxChurn: 8, LoadReps: 15, ReadShare: 0.2}
}

// aDomain is the range of A: the select views' bands tile it, so every
// tuple falls in exactly one select band.
func (p fanoutParams) aDomain() int { return p.SelectViews * p.Band }

func fanoutViews(p fanoutParams) []viewDef {
	var vs []viewDef
	for i := 0; i < p.SelectViews; i++ {
		lo := i * p.Band
		vs = append(vs, viewDef{
			name: fmt.Sprintf("sel%02d", i),
			spec: mview.ViewSpec{From: []string{"r"}, Where: fmt.Sprintf("A >= %d && A < %d && B > C", lo, lo+p.Band)},
			opts: []mview.ViewOption{mview.WithFilter()},
		})
	}
	for j := 0; j < p.JoinViews; j++ {
		lo := j * (p.aDomain() / p.JoinViews)
		vs = append(vs, viewDef{
			name: fmt.Sprintf("join%02d", j),
			spec: mview.ViewSpec{From: []string{"r", "s"},
				Where:  fmt.Sprintf("r.C = s.C && A >= %d && A < %d && D < 10", lo, lo+p.Band),
				Select: []string{"A", "B", "D"}},
			opts: []mview.ViewOption{mview.WithFilter()},
		})
	}
	return vs
}

type fanoutSession struct {
	e     *env
	p     fanoutParams
	db    *mview.DB
	rng   *rand.Rand
	live  [][3]int64 // the writer's model of r
	set   map[[3]int64]bool
	views []viewDef
	rec   *spanRecorder // nil when untraced
}

func setupFanout(p fanoutParams) setupFunc {
	return func(e *env, rec *recorders) (session, error) {
		s := &fanoutSession{e: e, p: p, views: fanoutViews(p), set: map[[3]int64]bool{}}
		var tr obs.Tracer
		if rec != nil {
			tr, s.rec = rec.leader, rec.leader
		}
		s.db = mview.Open(mview.WithObs(obs.NewRegistry(), tr))
		if err := s.setup(); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (s *fanoutSession) setup() error {
	p := s.p
	if err := s.db.CreateRelation("r", "A", "B", "C"); err != nil {
		return err
	}
	if err := s.db.CreateRelation("s", "C", "D"); err != nil {
		return err
	}
	s.rng = rand.New(rand.NewSource(s.e.seed))
	// D is a shuffled cycle through its domain rather than independent
	// draws, so every seed gives the joins the same selectivity.
	var ops []mview.Op
	for c, i := range s.rng.Perm(p.SRows) {
		ops = append(ops, mview.Insert("s", int64(c), int64(i%p.D)))
	}
	for len(s.live) < p.Rows {
		t := s.newTuple()
		s.add(t)
		ops = append(ops, mview.Insert("r", t[:]...))
	}
	if _, err := s.db.Exec(ops...); err != nil {
		return err
	}
	return createViews(s.db, s.views)
}

// newTuple draws an r tuple not yet in the model.
func (s *fanoutSession) newTuple() [3]int64 {
	for {
		t := [3]int64{int64(s.rng.Intn(s.p.aDomain())), int64(s.rng.Intn(s.p.BC)), int64(s.rng.Intn(s.p.BC))}
		if !s.set[t] {
			return t
		}
	}
}

func (s *fanoutSession) add(t [3]int64) {
	s.live = append(s.live, t)
	s.set[t] = true
}

func (s *fanoutSession) close() { _ = s.db.Close() }

func (s *fanoutSession) measure(d time.Duration) (*phase, error) {
	ph := &phase{}
	p := s.p
	writeD := time.Duration(float64(d) * (1 - p.ReadShare))
	readD := d - writeD

	// Commit-to-visible: from the start of Exec until a subscriber
	// receives the row. Inserted tuples with B > C enter the select view
	// of their band.
	var vis latencies
	var pmu sync.Mutex
	pending := map[[3]int64]time.Time{}
	onChange := func(ch mview.Change) {
		now := time.Now()
		pmu.Lock()
		defer pmu.Unlock()
		for _, r := range ch.Inserts {
			k := [3]int64{r.Values[0], r.Values[1], r.Values[2]}
			if t, ok := pending[k]; ok {
				vis.add(now, now.Sub(t))
				delete(pending, k)
			}
		}
	}
	for _, v := range s.views[:p.SelectViews] {
		cancel, err := s.db.Subscribe(v.name, onChange)
		if err != nil {
			return nil, err
		}
		defer cancel()
	}

	var reads splitReads
	read := func() bool {
		v := s.views[s.rng.Intn(len(s.views))].name
		ph.attempted++
		if _, err := s.db.View(v); err != nil {
			ph.failed++
			s.e.logf("fanout read: %v", err)
			return false
		}
		return true
	}
	rs, err := s.saveImage()
	if err != nil {
		return nil, err
	}
	ph.gate(rs.load(p.LoadReps / 2))
	reads.run(readD/2, read)

	var writeLat latencies
	before, rt0 := capture(s.db), readRuntime()
	span0 := s.rec.total("diffeval.compute")
	t0 := time.Now()
	ops := make([]mview.Op, 0, 2*p.TxChurn)
	victims := make([]int, 0, p.TxChurn)
	for deadline := t0.Add(writeD); time.Now().Before(deadline); {
		ops, victims = ops[:0], victims[:0]
		for len(victims) < p.TxChurn {
			i := s.rng.Intn(len(s.live))
			if !slices.Contains(victims, i) {
				victims = append(victims, i)
				ops = append(ops, mview.Delete("r", s.live[i][:]...))
			}
		}
		ins := make([][3]int64, 0, p.TxChurn)
		for len(ins) < p.TxChurn {
			if t := s.newTuple(); !slices.Contains(ins, t) {
				ins = append(ins, t)
				ops = append(ops, mview.Insert("r", t[:]...))
			}
		}
		start := time.Now()
		pmu.Lock()
		for _, t := range ins {
			if t[1] > t[2] {
				pending[t] = start
			}
		}
		pmu.Unlock()
		ph.attempted++
		if _, err := s.db.Exec(ops...); err != nil {
			ph.failed++
			s.e.logf("fanout write: %v", err)
			continue
		}
		now := time.Now()
		writeLat.add(now, now.Sub(start))
		s.remove(victims)
		for _, t := range ins {
			s.add(t)
		}
	}
	ph.writeSecs = time.Since(t0).Seconds()
	ph.rt = runtimeSince(rt0)
	ph.computeS = (s.rec.total("diffeval.compute") - span0).Seconds()
	ph.leader = counterDelta{before, capture(s.db)}

	reads.run(readD-readD/2, read)
	ph.readSecs = reads.secs
	ph.summarize(writeLat.take(t0), reads.take(), vis.take(t0), nil)
	ph.gate(rs.load(p.LoadReps - p.LoadReps/2))
	ph.recoverS = median(rs.times)
	// The image is dead from here on: the heap below is the engine's.
	ph.heapMB = liveHeapMB()
	pmu.Lock()
	if len(pending) > 0 {
		ph.gate(fmt.Errorf("visibility: %d committed rows never reached a subscriber", len(pending)))
	}
	pmu.Unlock()

	ph.gate(checkOracle(s.db, s.views))
	ph.gate(s.checkModel())
	return ph, nil
}

// remove swap-deletes the tuples at the given model indices.
func (s *fanoutSession) remove(idx []int) {
	for _, i := range idx {
		delete(s.set, s.live[i])
	}
	// Delete from the highest index down so swaps never move a victim.
	sort.Sort(sort.Reverse(sort.IntSlice(idx)))
	for _, i := range idx {
		last := len(s.live) - 1
		s.live[i] = s.live[last]
		s.live = s.live[:last]
	}
}

// checkModel compares r with the writer's model of what committed.
func (s *fanoutSession) checkModel() error {
	rows, err := s.db.Rows("r")
	if err != nil {
		return err
	}
	if len(rows) != len(s.live) {
		return fmt.Errorf("model: r has %d rows, writer committed %d live", len(rows), len(s.live))
	}
	for _, r := range rows {
		if !s.set[[3]int64{r[0], r[1], r[2]}] {
			return fmt.Errorf("model: r holds %v, which the writer deleted or never inserted", r)
		}
	}
	return nil
}

// restart is the restart path of an in-memory database: Load an image
// written by Save, which re-materializes every view. The image is the
// state the set-up left, so every run loads the same one, and the
// Loads are timed in two batches, before and after the measured phase,
// so they sample two stretches of a shared host's CPU.
type restart struct {
	img   []byte
	pre   contents
	times []float64
}

func (s *fanoutSession) saveImage() (*restart, error) {
	var img bytes.Buffer
	if err := s.db.Save(&img); err != nil {
		return nil, err
	}
	pre, err := readContents(s.db)
	if err != nil {
		return nil, err
	}
	// One untimed Load first: the first one also pays for growing the
	// process's heap, which a restarted server pays once.
	warm, err := mview.Load(bytes.NewReader(img.Bytes()), mview.WithObs(obs.NewRegistry(), nil))
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	_ = warm.Close()
	return &restart{img: img.Bytes(), pre: pre}, nil
}

// load times n Loads of the image; the last must equal the saved state.
func (r *restart) load(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		db, err := mview.Load(bytes.NewReader(r.img), mview.WithObs(obs.NewRegistry(), nil))
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		r.times = append(r.times, time.Since(t0).Seconds())
		if i == n-1 {
			post, err := readContents(db)
			if err == nil {
				err = sameContents("load", r.pre, post)
			}
			if err != nil {
				_ = db.Close()
				return err
			}
		}
		_ = db.Close()
	}
	return nil
}
