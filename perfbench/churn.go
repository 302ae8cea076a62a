package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/sofa"
)

// runChurn is the untraced run of the churn workload: set-up with
// Open(CreateFrom), the seeded op stream against the durable index with a
// batch over part of the query pool after each Compact, then Close and a
// timed Open. Answers are checked along the stream (including right after
// compactions) and after the reopen.
func runChurn(w workload, o runOpts, rep *report) error {
	in, err := generate(w, o)
	if err != nil {
		return err
	}
	var dx *sofa.DurableIndex
	var dir string
	builds := 0
	if err := measureSetup(rep, w.Builds, func() error {
		return closeDurable(&dx, dir)
	}, func() error {
		builds++
		dir = filepath.Join(o.dir, fmt.Sprintf("churn-%d", builds))
		var err error
		dx, err = openDurable(dir, in, w)
		return err
	}, func() int { return dx.Len() }); err != nil {
		return err
	}
	defer closeDurable(&dx, dir)

	sample := sampleQueries(o.seed, w.Verify)
	c := newChurnStream(o, rep, in, dx, nil)
	c.batches = true
	c.sample = sample
	if err := c.run(streamOps(o.duration)); err != nil {
		return err
	}
	rep.set("query_p50_ms", median(c.searchMs), len(c.searchMs))
	p99, chunks := tailLatency(c.searchMs, poolSize)
	rep.set("query_p99_ms", p99, len(c.searchMs))
	rep.info["query_p99_ms_by_chunk"] = chunks
	rep.set("ops_per_s", float64(c.ops)/c.busy.Seconds(), c.ops)
	rep.set("batch_qps", median(c.qps), len(c.qps))
	rep.info["compactions_seen"] = len(c.pauseMs)
	rep.info["ops"] = c.ops

	size, err := diskBytes(dx, dir)
	if err != nil {
		return err
	}
	rep.set("disk_bytes_per_live_series", float64(size)/float64(dx.Len()), 1)
	rec, err := c.reopen(dir, w.Reloads, sample, nil)
	dx = nil // reopen closed it
	if err != nil {
		return err
	}
	rep.set("recovery_s", rec.Seconds(), w.Reloads)
	return nil
}

// openDurable creates a durable churn index over the workload's data.
func openDurable(dir string, in inputs, w workload) (*sofa.DurableIndex, error) {
	return sofa.Open(dir, sofa.CreateFrom(in.data, buildOptions(w)...), sofa.WithSync(sofa.SyncNone))
}

// closeDurable closes *dx (if open) and removes its directory.
func closeDurable(dx **sofa.DurableIndex, dir string) error {
	if *dx == nil {
		return nil
	}
	err := (*dx).Close()
	*dx = nil
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// diskBytes is the durable index's container plus write-ahead log size.
func diskBytes(dx *sofa.DurableIndex, dir string) (int64, error) {
	st, err := os.Stat(core.ContainerPath(dir))
	if err != nil {
		return 0, err
	}
	return st.Size() + dx.WALBytes(), nil
}

// streamOps is the length of an op stream given d of the run.
func streamOps(d time.Duration) int {
	return max(int(churnOpsPerSecond*d.Seconds()), 2*compactEvery)
}

// churnStream is the seeded op stream of the churn workload: 60% one-query
// searches, 20% Insert, 10% Delete and 10% Upsert, with Compact every
// compactEvery ops and one Checkpoint halfway. Everything runs on one
// goroutine, so searches never overlap mutations. In the traced run a twin
// in-memory core.Index receives the same mutations and compactions, and its
// answers must equal the durable index's bit for bit.
type churnStream struct {
	rep  *report
	in   inputs
	dx   *sofa.DurableIndex
	twin *core.Index // traced run only
	orc  *oracle
	rng  *rand.Rand
	logf func(string, ...any)

	batches bool  // run a timed batch after each Compact
	sample  []int // pool queries whose batch answers are checked

	fresh        int  // next fresh series
	verifyNext   bool // check the next search (one just ran after a compaction)
	nextBatch    int  // pool index of the next batch's first query
	qps          []float64
	ops          int
	busy         time.Duration // time inside ops and Compact calls
	searchMs     []float64
	writeUs      []float64 // durable Insert, Delete and Upsert
	pauseMs      []float64 // Compact calls that compacted a shard
	checkpointMs float64

	// Traced run only.
	twinUs       map[string][]float64 // twin Insert/Delete/Upsert
	twinWriteUs  []float64
	shardMs      []float64 // twin compaction time per compacted shard
	syncUs       []float64
	tombFrac     []float64
	twinMismatch int
}

func newChurnStream(o runOpts, rep *report, in inputs, dx *sofa.DurableIndex, twin *core.Index) *churnStream {
	return &churnStream{
		rep:    rep,
		in:     in,
		dx:     dx,
		twin:   twin,
		orc:    newOracle(rows(in.data)),
		rng:    rand.New(rand.NewSource(o.seed)),
		logf:   logger(o),
		twinUs: map[string][]float64{},
	}
}

// run executes n ops.
func (c *churnStream) run(n int) error {
	runtime.GC() // start from a collected heap, not set-up's garbage
	for c.ops < n {
		if c.ops == n/2 {
			if err := c.checkpoint(); err != nil {
				return err
			}
		}
		var err error
		switch r := c.rng.Float64(); {
		case r < searchShare:
			err = c.search()
		case r < searchShare+insertShare:
			err = c.insert()
		case r < searchShare+insertShare+deleteShare:
			err = c.delete()
		default:
			err = c.upsert()
		}
		if err != nil {
			return err
		}
		c.ops++
		if c.ops%compactEvery == 0 {
			if err := c.compact(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *churnStream) search() error {
	query := c.in.pool[c.rng.Intn(len(c.in.pool))]
	verify := c.rng.Intn(churnVerifyP) == 0 || c.verifyNext
	c.verifyNext = false
	if c.twin != nil {
		live, tomb := c.dx.Len(), c.dx.Tombstoned()
		c.tombFrac = append(c.tombFrac, float64(tomb)/float64(live+tomb))
	}
	q := []sofa.Query{{Series: query, K: k}}
	t0 := time.Now()
	res, err := c.dx.SearchBatch(context.Background(), q, 1)
	dt := time.Since(t0)
	c.rep.op(err)
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	c.busy += dt
	c.searchMs = append(c.searchMs, ms(dt))
	if c.twin != nil {
		tres, err := c.twin.Collection().SearchBatchPlan(context.Background(),
			[]core.PlanQuery{{Series: query, Plan: core.Plan{K: k}}}, 1)
		if err != nil {
			return fmt.Errorf("twin search: %w", err)
		}
		if !sameAnswer(res[0], tres[0]) {
			c.twinMismatch++
			c.rep.wrong++
			c.logf("twin answer differs from the durable index's after %d ops", c.ops)
		}
	}
	if verify {
		c.rep.verify(c.orc, query, res[0], c.logf, fmt.Sprintf("churn search after %d ops", c.ops))
	}
	return nil
}

func (c *churnStream) nextFresh() []float64 {
	s := c.in.fresh[c.fresh%len(c.in.fresh)]
	c.fresh++
	return s
}

// write times a durable mutation and, in the traced run, its twin.
func (c *churnStream) write(kind string, durable func() error, twin func() error) error {
	t0 := time.Now()
	err := durable()
	dt := time.Since(t0)
	c.rep.op(err)
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	c.busy += dt
	c.writeUs = append(c.writeUs, us(dt))
	if c.twin != nil {
		t0 := time.Now()
		err := twin()
		dt := us(time.Since(t0))
		if err != nil {
			return fmt.Errorf("twin %s: %w", kind, err)
		}
		c.twinUs[kind] = append(c.twinUs[kind], dt)
		c.twinWriteUs = append(c.twinWriteUs, dt)
	}
	return nil
}

func (c *churnStream) insert() error {
	s := c.nextFresh()
	var id, tid sofa.ID
	err := c.write("insert",
		func() (err error) { id, err = c.dx.Insert(s); return err },
		func() (err error) { tid, err = c.twin.Insert(s); return err })
	if err != nil {
		return err
	}
	if c.twin != nil && tid != id {
		return fmt.Errorf("twin insert assigned id %d, durable %d", tid, id)
	}
	return c.orc.insert(id, s)
}

func (c *churnStream) delete() error {
	id := c.orc.pick(c.rng)
	if err := c.write("delete",
		func() error { return c.dx.Delete(id) },
		func() error { return c.twin.Delete(id) }); err != nil {
		return err
	}
	c.orc.remove(id)
	return nil
}

func (c *churnStream) upsert() error {
	id := c.orc.pick(c.rng)
	s := c.nextFresh()
	if err := c.write("upsert",
		func() error { return c.dx.Upsert(id, s) },
		func() error { return c.twin.Upsert(id, s) }); err != nil {
		return err
	}
	c.orc.upsert(id, s)
	return nil
}

// compact applies the compaction policy. A call that compacted a shard is a
// pause (its tombstone count drops); the next search is then checked.
func (c *churnStream) compact() error {
	before := c.dx.Tombstoned()
	t0 := time.Now()
	err := c.dx.Compact()
	dt := time.Since(t0)
	c.rep.op(err)
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	c.busy += dt
	if c.dx.Tombstoned() < before {
		c.pauseMs = append(c.pauseMs, ms(dt))
		c.verifyNext = true
	}
	if c.batches {
		return c.batch()
	}
	if c.twin == nil {
		return nil
	}
	col := c.twin.Collection()
	n0 := col.Compactions()
	t0 = time.Now()
	if err := c.twin.MaybeCompact(); err != nil {
		return fmt.Errorf("twin compact: %w", err)
	}
	dt = time.Since(t0)
	if n := col.Compactions() - n0; n > 0 {
		c.shardMs = append(c.shardMs, ms(dt)/float64(n))
	}
	t0 = time.Now()
	err = c.dx.Sync()
	c.syncUs = append(c.syncUs, us(time.Since(t0)))
	c.rep.op(err)
	return err
}

// batch times one SearchBatch over the next batchSize pool queries (its
// time is not part of the op stream's) and checks the sampled queries among
// them.
func (c *churnStream) batch() error {
	lo := c.nextBatch
	hi := min(lo+batchSize, len(c.in.pool))
	c.nextBatch = hi % len(c.in.pool)
	qs := poolQueries(c.in.pool[lo:hi], nil)
	v, err := timeBatch(c.rep, c.dx, qs)
	if err != nil {
		return err
	}
	c.qps = append(c.qps, v)
	var idx []int
	for _, qi := range c.sample {
		if qi >= lo && qi < hi {
			idx = append(idx, qi)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	res, err := c.dx.SearchBatch(context.Background(), poolQueries(c.in.pool, idx), workers())
	c.rep.op(err)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	for i, qi := range idx {
		c.rep.verify(c.orc, c.in.pool[qi], res[i], c.logf, fmt.Sprintf("batch after %d ops", c.ops))
	}
	return nil
}

// checkpoint publishes the durable index's state; its time is not part of
// the op stream's.
func (c *churnStream) checkpoint() error {
	t0 := time.Now()
	err := c.dx.Checkpoint()
	c.checkpointMs = ms(time.Since(t0))
	c.rep.op(err)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	c.orc.checkpoint()
	return nil
}

// reopen closes the durable index, runs beforeOpen (when not nil), and
// opens the index from dir n times, closing all but the last; each Open
// loads the same checkpoint and replays the same log. It checks the last
// recovered index's answers to the sampled queries and returns the median
// Open time.
func (c *churnStream) reopen(dir string, n int, sample []int, beforeOpen func() error) (time.Duration, error) {
	err := c.dx.Close()
	c.dx = nil
	c.rep.op(err)
	if err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	if beforeOpen != nil {
		if err := beforeOpen(); err != nil {
			return 0, err
		}
	}
	var dx *sofa.DurableIndex
	var opens []float64
	for i := 0; i < n; i++ {
		if dx != nil {
			err := dx.Close()
			c.rep.op(err)
			if err != nil {
				return 0, fmt.Errorf("close: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		dx, err = sofa.Open(dir, sofa.WithSync(sofa.SyncNone))
		d := time.Since(t0)
		c.rep.op(err)
		if err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		opens = append(opens, d.Seconds())
	}
	defer dx.Close()
	c.rep.info["recovery_s_samples"] = opens
	c.orc.reload(false)
	if dx.Len() != c.orc.Len() {
		c.rep.wrong++
		c.logf("reopened index has %d live series, want %d", dx.Len(), c.orc.Len())
	}
	res, err := dx.SearchBatch(context.Background(), poolQueries(c.in.pool, sample), workers())
	c.rep.op(err)
	if err != nil {
		return 0, fmt.Errorf("search after reopen: %w", err)
	}
	for i, qi := range sample {
		c.rep.verify(c.orc, c.in.pool[qi], res[i], c.logf, "after reopen")
	}
	return time.Duration(median(opens) * float64(time.Second)), nil
}

// sameAnswer reports whether two answers are bit-identical.
func sameAnswer(a, b []sofa.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}
