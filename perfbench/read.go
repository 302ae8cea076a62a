package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/sofa"
)

// runRead is the untraced run of a read workload: set-up, the read loop
// (one-query SearchBatch calls alternating with batches over the query
// pool), then a save and a timed load of the index. Answers from every phase
// are checked.
func runRead(w workload, o runOpts, rep *report) error {
	in, err := generate(w, o)
	if err != nil {
		return err
	}
	orc := newOracle(rows(in.data))
	logf := logger(o)

	var ix *sofa.Index
	if err := measureSetup(rep, w.Builds, func() error {
		ix = nil
		return nil
	}, func() error {
		var err error
		ix, err = sofa.Build(in.data, buildOptions(w)...)
		return err
	}, func() int { return ix.Len() }); err != nil {
		return err
	}

	sample := sampleQueries(o.seed, w.Verify)
	if err := readLoop(rep, ix, in.pool, o.duration, sample, func(qi int, res []sofa.Result) {
		rep.verify(orc, in.pool[qi], res, logf, "read loop")
	}); err != nil {
		return err
	}

	// Save (untimed), then time loading it back.
	path := filepath.Join(o.dir, "index.sofa")
	size, err := saveIndex(ix, path)
	if err != nil {
		return err
	}
	rep.set("disk_bytes_per_live_series", float64(size)/float64(ix.Len()), 1)
	ix = nil
	orc.checkpoint()
	orc.reload(true) // the index no longer aliases the rows
	loads, lx, err := timeLoads(rep, path, w.Reloads)
	if err != nil {
		return err
	}
	rep.set("recovery_s", median(loads), len(loads))
	rep.info["recovery_s_samples"] = loads
	res, err := lx.SearchBatch(context.Background(), poolQueries(in.pool, sample), workers())
	rep.op(err)
	if err != nil {
		return err
	}
	for i, qi := range sample {
		rep.verify(orc, in.pool[qi], res[i], logf, "after reload")
	}
	return os.Remove(path)
}

// timeLoads loads the container at path n times, each after a GC, and
// returns the load times in seconds and the last loaded index.
func timeLoads(rep *report, path string, n int) ([]float64, *sofa.Index, error) {
	var secs []float64
	var lx *sofa.Index
	for i := 0; i < n; i++ {
		lx = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		lx, err = sofa.LoadFile(path)
		d := time.Since(t0)
		rep.op(err)
		if err != nil {
			return nil, nil, fmt.Errorf("load: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	return secs, lx, nil
}

// buildOptions are the index options of a workload.
func buildOptions(w workload) []sofa.Option {
	opts := []sofa.Option{sofa.SFA(), sofa.Shards(w.Shards), sofa.Workers(workers())}
	if w.Churn {
		opts = append(opts, sofa.CompactionPolicy(churnPolicy))
	}
	return opts
}

// churnPolicy is the churn workload's compaction policy; automatic
// compaction is off, Compact runs on a fixed op cadence.
var churnPolicy = sofa.Compaction{MaxTombstoneFraction: 0.02, RelearnChurnFraction: 0.05}

// measureSetup runs set-up n times and records setup_s (the median) and
// index_bytes_per_series (the median heap growth over set-up after GC,
// divided by the series count). drop releases the previous set-up's index.
func measureSetup(rep *report, n int, drop, build func() error, count func() int) error {
	var secs, bytes []float64
	for i := 0; i < n; i++ {
		if err := drop(); err != nil {
			return err
		}
		runtime.GC()
		before := heapAlloc()
		start := time.Now()
		err := build()
		d := time.Since(start)
		rep.op(err)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		secs = append(secs, d.Seconds())
		bytes = append(bytes, float64(heapAlloc())-float64(before))
	}
	rep.set("setup_s", median(secs), n)
	rep.info["setup_s_samples"] = secs
	rep.set("index_bytes_per_series", median(bytes)/float64(count()), n)
	return nil
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// searcher is the read side shared by sofa.Index and sofa.DurableIndex.
type searcher interface {
	SearchBatch(ctx context.Context, qs []sofa.Query, workers int) ([][]sofa.Result, error)
}

// batchSize is the number of queries per SearchBatch call when measuring
// batch_qps: each call is one sample.
const batchSize = 256

// readLoop measures the read path for d in rounds. A round is one whole pass
// of the closed one-client loop (one-query SearchBatch calls over the pool,
// so every query counts equally) followed by the pool in batches of
// batchSize with one worker per CPU. Alternating spreads both measurements
// over the whole run, so a stretch of interference from outside the program
// does not fall on one of them alone. It records query_p50_ms, query_p99_ms,
// ops_per_s and batch_qps, and hands the last answers of every sampled query
// to check.
func readLoop(rep *report, ix searcher, pool [][]float64, d time.Duration, sample []int, check func(qi int, res []sofa.Result)) error {
	ctx := context.Background()
	qs := poolQueries(pool, nil)
	runtime.GC() // start from a collected heap, not set-up's garbage
	last := make([][]sofa.Result, len(pool))
	var lat, qps []float64
	var busy time.Duration
	for start := time.Now(); len(lat) == 0 || time.Since(start) < d; {
		for qi, s := range pool {
			q := []sofa.Query{{Series: s, K: k}}
			t0 := time.Now()
			res, err := ix.SearchBatch(ctx, q, 1)
			dt := time.Since(t0)
			rep.op(err)
			if err != nil {
				return fmt.Errorf("search: %w", err)
			}
			busy += dt
			lat = append(lat, ms(dt))
			last[qi] = res[0]
		}
		for lo := 0; lo < len(qs); lo += batchSize {
			v, err := timeBatch(rep, ix, qs[lo:min(lo+batchSize, len(qs))])
			if err != nil {
				return err
			}
			qps = append(qps, v)
		}
	}
	rep.set("query_p50_ms", median(lat), len(lat))
	p99, chunks := tailLatency(lat, len(pool))
	rep.set("query_p99_ms", p99, len(lat))
	rep.info["query_p99_ms_by_pass"] = chunks
	rep.set("ops_per_s", float64(len(lat))/busy.Seconds(), len(lat))
	rep.set("batch_qps", median(qps), len(qps))
	for _, qi := range sample {
		check(qi, last[qi])
	}
	res, err := ix.SearchBatch(ctx, poolQueries(pool, sample), workers())
	rep.op(err)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	for i, qi := range sample {
		check(qi, res[i])
	}
	return nil
}

// timeBatch answers qs with one SearchBatch call using one worker per CPU
// and returns its queries per second.
func timeBatch(rep *report, ix searcher, qs []sofa.Query) (float64, error) {
	t0 := time.Now()
	_, err := ix.SearchBatch(context.Background(), qs, workers())
	dt := time.Since(t0)
	rep.attempted += int64(len(qs))
	if err != nil {
		rep.failed += int64(len(qs))
		return 0, fmt.Errorf("batch: %w", err)
	}
	return float64(len(qs)) / dt.Seconds(), nil
}

// poolQueries makes k-NN queries of the pool entries in idx (all of them
// when idx is nil).
func poolQueries(pool [][]float64, idx []int) []sofa.Query {
	if idx == nil {
		qs := make([]sofa.Query, len(pool))
		for i, s := range pool {
			qs[i] = sofa.Query{Series: s, K: k}
		}
		return qs
	}
	qs := make([]sofa.Query, len(idx))
	for i, qi := range idx {
		qs[i] = sofa.Query{Series: pool[qi], K: k}
	}
	return qs
}

// sampleQueries picks n distinct pool indices from the seed: the queries
// whose answers the oracle checks.
func sampleQueries(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x0dd5)).Perm(poolSize)[:n]
}

// saveIndex writes the index's container to path and returns its size. It
// syncs the file, so the kernel does not write it back while later phases
// are timed.
func saveIndex(ix *sofa.Index, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := sofa.Save(ix, bw); err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// logger returns a printf to the run's log.
func logger(o runOpts) func(string, ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(o.log, "perfbench: "+format+"\n", args...)
	}
}
