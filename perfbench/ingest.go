package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mview"
	"mview/internal/httpapi"
	"mview/internal/obs"
)

// ingestParams size the ingest workload.
type ingestParams struct {
	Orders      int     `json:"orders"`       // preloaded orders(O,C,A) rows, held constant
	Customers   int     `json:"customers"`    // cust(C,R) rows
	Regions     int     `json:"regions"`      // R is uniform in [0,Regions); the join view keeps R < 5
	Amounts     int     `json:"amounts"`      // A is uniform in [0,Amounts); the select view keeps A > 900
	Clients     int     `json:"clients"`      // closed-loop HTTP writers, one keep-alive connection each
	ReadShare   float64 `json:"read_share"`   // share of the measured time spent reading, half before and half after the writes
	WarmupTx    int     `json:"warmup_tx"`    // untimed transactions before the timed writes
	TailTx      int     `json:"tail_tx"`      // transactions logged after the post-run checkpoint, replayed by recovery
	RecoverReps int     `json:"recover_reps"` // reopens timed; recover_s is their median
	LoadBatch   int     `json:"load_batch"`   // rows per preload transaction
}

func defaultIngest() ingestParams {
	return ingestParams{Orders: 200_000, Customers: 1000, Regions: 10, Amounts: 1000, Clients: 2,
		ReadShare: 0.4, WarmupTx: 8000, TailTx: 1000, RecoverReps: 3, LoadBatch: 20_000}
}

func ingestViews() []viewDef {
	return []viewDef{
		{name: "big_orders", spec: mview.ViewSpec{From: []string{"orders"}, Where: "A > 900"}},
		{name: "order_custs", spec: mview.ViewSpec{From: []string{"orders"}, Select: []string{"C"}}},
		{name: "region_orders", spec: mview.ViewSpec{From: []string{"orders o", "cust c"}, Where: "o.C = c.C && R < 5", Select: []string{"O", "A", "R"}}},
	}
}

// orderClient is one closed-loop writer. It owns the orders whose id is
// congruent to its index and deletes its oldest on every insert, so the
// base stays at its preloaded size.
type orderClient struct {
	rng    *rand.Rand
	next   int64      // next order id it inserts
	stride int64      // the number of clients: ids it owns are next + k*stride
	live   [][3]int64 // its live orders, oldest first from head
	head   int
}

func (c *orderClient) tx(p ingestParams) (ins, del [3]int64) {
	ins = [3]int64{c.next, int64(c.rng.Intn(p.Customers)), int64(c.rng.Intn(p.Amounts))}
	return ins, c.live[c.head]
}

func (c *orderClient) committed(ins [3]int64) {
	c.live = append(c.live, ins)
	c.head++
	c.next += c.stride
	if c.head > len(c.live)/2 { // compact the consumed prefix
		c.live = append(c.live[:0], c.live[c.head:]...)
		c.head = 0
	}
}

type ingestSession struct {
	e       *env
	p       ingestParams
	dir     string
	db      *mview.DB
	srv     *server
	region  []int64 // R of every customer
	clients []*orderClient
	views   []viewDef
	rec     *spanRecorder // nil when untraced
}

func setupIngest(p ingestParams) setupFunc {
	return func(e *env, rec *recorders) (session, error) {
		s := &ingestSession{e: e, p: p, views: ingestViews()}
		if err := s.setup(rec); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
}

func (s *ingestSession) setup(rec *recorders) error {
	var err error
	if s.dir, err = os.MkdirTemp(s.e.workDir, "ingest-"); err != nil {
		return err
	}
	var tr obs.Tracer
	if rec != nil {
		tr, s.rec = rec.leader, rec.leader
	}
	reg := obs.NewRegistry()
	if s.db, err = mview.OpenDurable(s.dir, mview.WithGroupCommit(0, groupWindow), mview.WithObs(reg, tr)); err != nil {
		return err
	}
	if err := s.db.CreateRelation("orders", "O", "C", "A"); err != nil {
		return err
	}
	if err := s.db.CreateRelation("cust", "C", "R"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.e.seed))
	ops := make([]mview.Op, 0, s.p.LoadBatch)
	s.region = make([]int64, s.p.Customers)
	for c := range s.region {
		s.region[c] = int64(rng.Intn(s.p.Regions))
		ops = append(ops, mview.Insert("cust", int64(c), s.region[c]))
	}
	if _, err := s.db.Exec(ops...); err != nil {
		return err
	}
	for i := 0; i < s.p.Clients; i++ {
		s.clients = append(s.clients, &orderClient{
			rng:    rand.New(rand.NewSource(s.e.seed*7919 + int64(i) + 1)),
			next:   int64(s.p.Orders) + int64(i),
			stride: int64(s.p.Clients),
			live:   make([][3]int64, 0, s.p.Orders/s.p.Clients+1),
		})
	}
	ops = ops[:0]
	for o := 0; o < s.p.Orders; o++ {
		row := [3]int64{int64(o), int64(rng.Intn(s.p.Customers)), int64(rng.Intn(s.p.Amounts))}
		c := s.clients[o%len(s.clients)]
		c.live = append(c.live, row)
		ops = append(ops, mview.Insert("orders", row[:]...))
		if len(ops) == s.p.LoadBatch || o == s.p.Orders-1 {
			if _, err := s.db.Exec(ops...); err != nil {
				return err
			}
			ops = ops[:0]
		}
	}
	if err := createViews(s.db, s.views); err != nil {
		return err
	}
	if err := s.db.Checkpoint(); err != nil {
		return err
	}
	h := httpapi.NewWith(s.db, httpapi.WithObs(reg, tr))
	s.srv, err = serve(h)
	return err
}

func (s *ingestSession) close() {
	if s.srv != nil {
		s.srv.close()
		s.srv = nil
	}
	if s.db != nil {
		_ = s.db.Close()
		s.db = nil
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// visible reports whether an inserted order enters a view the run
// subscribes to (big_orders or region_orders).
func (s *ingestSession) visible(row [3]int64) bool {
	return row[2] > 900 || s.region[row[1]] < 5
}

func (s *ingestSession) measure(d time.Duration) (*phase, error) {
	ph := &phase{}
	p := s.p
	writeD := time.Duration(float64(d) * (1 - p.ReadShare))
	readD := d - writeD

	// Commit-to-visible: from a write's send until a subscriber on the
	// serving database receives its row.
	var vis latencies
	var pmu sync.Mutex
	pending := map[int64]time.Time{}
	onChange := func(ch mview.Change) {
		now := time.Now()
		pmu.Lock()
		defer pmu.Unlock()
		for _, r := range ch.Inserts {
			if t, ok := pending[r.Values[0]]; ok {
				vis.add(now, now.Sub(t))
				delete(pending, r.Values[0])
			}
		}
	}
	for _, v := range []string{"big_orders", "region_orders"} {
		cancel, err := s.db.Subscribe(v, onChange)
		if err != nil {
			return nil, err
		}
		defer cancel()
	}

	var writeLat latencies
	var attempted, failed, viewBytes atomic.Int64

	// One reader: it and the handler serving it fit the host's two CPUs.
	var reads splitReads
	reader := newClient()
	defer reader.CloseIdleConnections()
	read := func() bool {
		attempted.Add(1)
		n, err := getView(reader, s.srv.url, "order_custs")
		if err != nil {
			failed.Add(1)
			s.e.logf("ingest read: %v", err)
			return false
		}
		viewBytes.Add(n)
		return true
	}
	readsBefore := capture(s.db)
	reads.run(readD/2, read)

	// write runs every client until more says stop. Only timed writes
	// record latency and visibility.
	write := func(more func() bool, timed bool) {
		var wg sync.WaitGroup
		for _, c := range s.clients {
			wg.Add(1)
			go func(c *orderClient) {
				defer wg.Done()
				hc := newClient()
				defer hc.CloseIdleConnections()
				for more() {
					ins, del := c.tx(p)
					body := execBody(op{true, "orders", ins[:]}, op{false, "orders", del[:]})
					start := time.Now()
					if timed && s.visible(ins) {
						pmu.Lock()
						pending[ins[0]] = start
						pmu.Unlock()
					}
					attempted.Add(1)
					if err := post(hc, s.srv.url, body); err != nil {
						failed.Add(1)
						s.e.logf("ingest write: %v", err)
						continue
					}
					if timed {
						now := time.Now()
						writeLat.add(now, now.Sub(start))
					}
					c.committed(ins)
				}
			}(c)
		}
		wg.Wait()
	}

	// Warm-up: the first few thousand commits after the load run about
	// 3x faster than the rest, while the copy-on-write overlays are
	// small. A fixed count of untimed commits puts every run's timed
	// phase on the same, slower stretch.
	var warm atomic.Int64
	write(func() bool { return warm.Add(1) <= int64(p.WarmupTx) }, false)

	before, rt0 := capture(s.db), readRuntime()
	span0 := s.rec.total("diffeval.compute")
	t0 := time.Now()
	deadline := t0.Add(writeD)
	write(func() bool { return time.Now().Before(deadline) }, true)
	ph.writeSecs = time.Since(t0).Seconds()
	ph.rt = runtimeSince(rt0)
	ph.computeS = (s.rec.total("diffeval.compute") - span0).Seconds()
	ph.leader = counterDelta{before, capture(s.db)}
	reads.run(readD-readD/2, read)
	ph.reads = counterDelta{readsBefore, capture(s.db)}
	ph.readSecs = reads.secs
	ph.summarize(writeLat.take(t0), reads.take(), vis.take(t0), nil)
	ph.heapMB = liveHeapMB()
	ph.attempted, ph.failed, ph.viewBytes = attempted.Load(), failed.Load(), viewBytes.Load()
	pmu.Lock()
	if len(pending) > 0 {
		ph.gate(fmt.Errorf("visibility: %d acknowledged rows never reached a subscriber", len(pending)))
	}
	pmu.Unlock()

	ph.gate(checkOracle(s.db, s.views))
	ph.gate(s.checkAcknowledged())
	ph.gate(s.recover(ph))
	return ph, nil
}

// checkAcknowledged compares the base with the clients' model of what
// was acknowledged: exactly their live orders.
func (s *ingestSession) checkAcknowledged() error {
	var want [][]int64
	for _, c := range s.clients {
		for _, r := range c.live[c.head:] {
			want = append(want, []int64{r[0], r[1], r[2]})
		}
	}
	slices.SortFunc(want, slices.Compare[[]int64])
	got, err := s.db.Rows("orders")
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("acknowledged: orders has %d rows, clients acknowledged %d live", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			return fmt.Errorf("acknowledged: orders row %d is %v, acknowledged %v", i, got[i], want[i])
		}
	}
	return nil
}

// recover checkpoints, logs a fixed tail of transactions, closes the
// database and times reopening it. The tail is fixed so recover_s does
// not grow with the run's write throughput.
func (s *ingestSession) recover(ph *phase) error {
	if err := s.db.Checkpoint(); err != nil {
		return err
	}
	s.db.SetLogSync(false) // the tail only has to reach the log; Close syncs it
	for i := 0; i < s.p.TailTx; i++ {
		c := s.clients[i%len(s.clients)]
		ins, del := c.tx(s.p)
		if _, err := s.db.Exec(mview.Insert("orders", ins[:]...), mview.Delete("orders", del[:]...)); err != nil {
			return err
		}
		c.committed(ins)
	}
	pre, err := readContents(s.db)
	if err != nil {
		return err
	}
	s.srv.close()
	s.srv = nil
	if err := s.db.Close(); err != nil {
		return err
	}
	s.db = nil

	return timeRecovery(ph, s.dir, s.p.RecoverReps, pre, s.views)
}
