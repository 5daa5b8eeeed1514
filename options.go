package mview

// Construction options (the v1 opening surface).
//
// Open, OpenDurable, and Load accept functional options so every
// engine-level knob is set before the database serves its first
// statement. The former mutator methods (SetMaintWorkers, Instrument)
// remain as thin wrappers for compatibility but are deprecated: options
// compose, replay correctly on durable reopen, and cannot race with
// traffic. Group commit has no mutator: WithGroupCommit is its only
// switch.

import (
	"fmt"
	"time"

	"mview/internal/db"
	"mview/internal/obs"
)

// Option configures a database at open time. Options apply in order;
// the zero set matches the historical defaults (GOMAXPROCS maintenance
// workers, serial commits, monolithic relations, no instrumentation).
type Option func(*config)

type config struct {
	maintWorkers int
	shards       int
	groupCommit  bool
	groupMax     int
	groupWindow  time.Duration
	obsSet       bool
	reg          *obs.Registry
	tracer       obs.Tracer
	segmentBytes int64
	defPolicy    *ViewOption
}

// WithMaintWorkers bounds the worker pool that parallelizes per-view
// (and, with WithShards, per-shard) maintenance inside each commit and
// RefreshAll. n <= 0 selects the default, GOMAXPROCS.
func WithMaintWorkers(n int) Option {
	return func(c *config) { c.maintWorkers = n }
}

// WithShards partitions every base relation into n hash shards on its
// first attribute. A transaction that modifies a single operand of a
// view then fans out one maintenance task per touched shard — pruned
// early when the §4 test refutes the shard's key range — instead of
// one task per view. n <= 1 keeps relations monolithic. The shard
// count is runtime configuration, not persisted state: snapshots and
// the commit log are shard-independent, and a durable database may
// reopen with any count.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithGroupCommit opens the database with group commit enabled:
// concurrent Exec calls coalesce into commit groups — one batched
// fsync, one composed maintenance pass, one snapshot publish.
// maxBatch caps the group size (<= 0 selects the default); window is
// how long the leader waits for followers once there is evidence of
// concurrency (0 disables the wait — groups form only from what has
// already queued). Transactions keep their individual atomicity: a
// member that fails validation is excluded and retried alone without
// poisoning the rest of its group. Solo and grouped commits log the
// same way — before the transaction becomes visible.
func WithGroupCommit(maxBatch int, window time.Duration) Option {
	return func(c *config) {
		c.groupCommit = true
		c.groupMax = maxBatch
		c.groupWindow = window
	}
}

// WithObs attaches a metrics registry and an optional tracer to the
// database and every layer beneath it at open time — for durable
// databases that includes the recovery cost of the open itself.
// Either argument may be nil. Equivalent to calling Instrument after
// opening.
func WithObs(reg *obs.Registry, tr obs.Tracer) Option {
	return func(c *config) {
		c.obsSet = true
		c.reg = reg
		c.tracer = tr
	}
}

// WithDefaultPolicy sets the refresh policy given to views created
// without an explicit one (the built-in default is OnCommit). p must
// be a when-policy option — OnCommit, Every, OnDemand, MaxStaleness,
// or AdaptivePolicy; anything else (or an invalid one, e.g. Every(0))
// surfaces as an error from the CreateView that would have used it.
// The default is materialized into each view's logged option list, so
// durable databases replay views under the policy they were created
// with even if the daemon reopens with a different default.
func WithDefaultPolicy(p ViewOption) Option {
	return func(c *config) { c.defPolicy = &p }
}

// WithSegmentSize sets the commit-log segment rotation threshold in
// bytes for durable databases: once the active segment exceeds n, the
// next append seals it and starts a new one, letting checkpoints drop
// covered segments by whole-file deletion. n <= 0 selects the default
// (64 MiB). Small values are useful in tests; in-memory databases
// ignore the option.
func WithSegmentSize(n int64) Option {
	return func(c *config) { c.segmentBytes = n }
}

func buildOpenConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// engineOptions returns the options that must reach the engine
// constructor (or db.Load) itself.
func (c config) engineOptions() []db.Option {
	var eo []db.Option
	if c.shards > 1 {
		eo = append(eo, db.WithShards(c.shards))
	}
	return eo
}

// applyRuntime applies the post-construction options. For durable
// databases this runs after the commit log is attached, so
// instrumentation covers the log and group commit batches its
// appends.
func (d *DB) applyRuntime(c config) {
	if c.defPolicy != nil {
		p := *c.defPolicy
		if p.err == nil && p.when == nil {
			p.err = fmt.Errorf("mview: WithDefaultPolicy option %q is not a refresh policy (want oncommit, ondemand, every=<dur>, maxstale=<dur>, or autopolicy)", p.name)
		}
		d.defaultPolicy = &p
	}
	if c.maintWorkers > 0 {
		d.engine().SetMaintWorkers(c.maintWorkers)
	}
	if c.obsSet {
		d.Instrument(c.reg, c.tracer)
	}
	if c.groupCommit {
		d.engine().EnableGroupCommit(c.groupMax, c.groupWindow)
	}
}

// Shards reports the configured hash-shard count of base relations
// (1 when unsharded).
func (d *DB) Shards() int { return d.engine().Shards() }
