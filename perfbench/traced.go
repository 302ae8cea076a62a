package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/sfa"
	"repro/internal/simd"
	"repro/sofa"
)

// leafSize is the index's default leaf capacity, used by the traced tree and
// as the block size of the LBD kernel timing.
const leafSize = 1024

// sfaSummarization adapts a learned SFA quantizer to index.Summarization,
// the way the core layer does.
type sfaSummarization struct{ *sfa.Quantizer }

func (s sfaSummarization) NewIndexEncoder() index.Encoder { return s.Quantizer.NewTransformer() }

// kernelSink keeps kernel results alive so the timing loops are not
// optimized away.
var kernelSink float64

// runTraced is the traced run. It times calls into each layer from this
// package: SFA learning and transforms, the index build, the shard engine's
// seed and finish stages over the benchmark's own index.Build (whose answers
// must equal the end-to-end index's), the ED and block-LBD kernels on the
// workload's own rows and words, and, on churn, the core write path through
// an in-memory twin. Spans are kept in memory and written out at the end.
func runTraced(w workload, o runOpts, rep *report) error {
	in, err := generate(w, o)
	if err != nil {
		return err
	}
	tr := newTracer()
	logf := logger(o)
	orc := newOracle(rows(in.data))

	// The end-to-end index the engine's answers are compared with.
	var ix searcher
	var sx *sofa.Index
	var dx *sofa.DurableIndex
	dir := filepath.Join(o.dir, "churn")
	if w.Churn {
		dx, err = openDurable(dir, in, w)
		ix = dx
	} else {
		sx, err = sofa.Build(in.data, buildOptions(w)...)
		ix = sx
	}
	rep.op(err)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer closeDurable(&dx, dir)

	tree, q, err := traceBuild(in, tr, rep)
	if err != nil {
		return err
	}
	engineShare, kernelShare := 0.6, 0.2
	if w.Churn {
		engineShare, kernelShare = 0.3, 0.1
	}
	sample := sampleQueries(o.seed, w.Verify)
	finishUs, err := traceEngine(tree, q, in, ix, orc, tr, rep, scale(o.duration, engineShare), sample, logf)
	if err != nil {
		return err
	}
	traceKernels(tree, q, in, rep, scale(o.duration, kernelShare), finishUs)

	if w.Churn {
		err = traceChurn(w, o, in, dx, dir, rep, streamOps(scale(o.duration, 1-engineShare-kernelShare)))
		dx = nil // traceChurn closed it
	} else {
		err = traceReload(w, o, sx, rep)
	}
	if err != nil {
		return err
	}
	rep.spans = tr.spans
	rep.info["spans"] = len(tr.spans)
	rep.info["spans_dropped"] = tr.dropped
	rep.info["self_us"] = selfTimes(tr.spans, time.Microsecond)
	return nil
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// traceBuild times SFA learning, the transform of every row and the index
// build, and returns the tree and quantizer.
func traceBuild(in inputs, tr *tracer, rep *report) (*index.Tree, *sfa.Quantizer, error) {
	runtime.GC()
	sp := tr.begin("sfa.learn", -1)
	q, err := sfa.Learn(in.data, sfa.Options{})
	tr.end(sp)
	rep.op(err)
	if err != nil {
		return nil, nil, fmt.Errorf("learn: %w", err)
	}
	rep.set("sfa.learn_ms", tr.durations("sfa.learn", time.Millisecond)[0], 1)

	tf := q.NewTransformer()
	word := make([]byte, q.Segments())
	sp = tr.begin("sfa.transform", -1)
	for i := 0; i < in.data.Len(); i++ {
		if _, err := tf.Word(in.data.Row(i), word); err != nil {
			return nil, nil, fmt.Errorf("transform: %w", err)
		}
	}
	tr.end(sp)
	rep.set("sfa.transform_ms", tr.durations("sfa.transform", time.Millisecond)[0], 1)

	runtime.GC()
	sp = tr.begin("index.build", -1)
	tree, err := index.Build(in.data, sfaSummarization{q}, index.Options{LeafCapacity: leafSize, Workers: workers()})
	tr.end(sp)
	rep.op(err)
	if err != nil {
		return nil, nil, fmt.Errorf("index build: %w", err)
	}
	rep.set("index.build_ms", tr.durations("index.build", time.Millisecond)[0], 1)
	return tree, q, nil
}

// traceEngine runs the query pool through a serial searcher's SeedShard and
// FinishShard for d. The first pass is a warm-up: it gives the funnel counts
// (LastStats) and its answers must equal the end-to-end index's. Later
// passes alternate two kinds. An engine pass traces every other query (spans
// recorded) and runs the rest untraced (the same calls, nothing recorded),
// swapping the two halves on the next engine pass. A paired pass times each
// query through the public one-query SearchBatch and through the engine,
// alternating which goes first. It returns the median finish time in µs.
func traceEngine(tree *index.Tree, q *sfa.Quantizer, in inputs, ix searcher, orc *oracle, tr *tracer, rep *report, d time.Duration, sample []int, logf func(string, ...any)) (float64, error) {
	ctx := context.Background()
	ref, err := ix.SearchBatch(ctx, poolQueries(in.pool, nil), workers())
	rep.attempted += int64(len(in.pool))
	if err != nil {
		rep.failed += int64(len(in.pool))
		return 0, fmt.Errorf("reference batch: %w", err)
	}
	s := tree.NewSerialSearcher()
	kn := index.NewKNNCollector(k)
	tf := q.NewTransformer()
	qn := make([]float64, tree.SeriesLen())
	qr := make([]float64, q.Segments())

	// engine answers one query and returns its wall time and the time of
	// its seed and finish stages.
	engine := func(query []float64) (wall, stages time.Duration, err error) {
		t0 := time.Now()
		root := tr.begin("query", -1)
		sp := tr.begin("sfa.query_repr", root)
		copy(qn, query)
		distance.ZNormalize(qn)
		_, err = tf.QueryRepr(qn, qr)
		tr.end(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("query repr: %w", err)
		}
		kn.Reset(k)
		te := time.Now()
		sp = tr.begin("index.seed", root)
		err = s.SeedShard(query, k, index.ShardQuery{KN: kn})
		tr.end(sp)
		if err == nil {
			sp = tr.begin("index.finish", root)
			err = s.FinishShard()
			tr.end(sp)
		}
		stages = time.Since(te)
		tr.end(root)
		rep.op(err)
		return time.Since(t0), stages, err
	}
	api := func(query []float64) (time.Duration, error) {
		t0 := time.Now()
		_, err := ix.SearchBatch(ctx, []sofa.Query{{Series: query, K: k}}, 1)
		d := time.Since(t0)
		rep.op(err)
		return d, err
	}

	var funnel index.SearchStats
	tr.on = false
	for qi, query := range in.pool {
		if _, _, err := engine(query); err != nil {
			return 0, err
		}
		st := s.LastStats()
		funnel.NodesVisited += st.NodesVisited
		funnel.LeavesRefined += st.LeavesRefined
		funnel.SeriesLBD += st.SeriesLBD
		funnel.SeriesED += st.SeriesED
		res := kn.Results()
		rep.checked++
		if !sameNeighbors(res, ref[qi]) {
			rep.wrong++
			logf("engine answer to query %d differs from the end-to-end answer", qi)
		}
		if slices.Contains(sample, qi) {
			rep.verify(orc, query, res, logf, "engine")
		}
	}

	var tracedUs, plainUs, apiUs []float64
	start := time.Now()
	for pass := 0; pass < 4 || time.Since(start) < d; pass++ {
		paired := pass%2 == 1
		for qi, query := range in.pool {
			var a, wall, stages time.Duration
			var err error
			tr.on = !paired && (qi+pass/2)%2 == 0
			if paired && qi%2 == 0 {
				a, err = api(query)
			}
			if err == nil {
				wall, stages, err = engine(query)
			}
			if err == nil && paired && qi%2 == 1 {
				a, err = api(query)
			}
			if err != nil {
				return 0, err
			}
			switch {
			case paired:
				apiUs = append(apiUs, us(a)-us(stages))
			case tr.on:
				tracedUs = append(tracedUs, us(wall))
			default:
				plainUs = append(plainUs, us(wall))
			}
		}
	}
	tr.on = true

	nq := float64(len(in.pool))
	rep.set("sfa.query_repr_us", median(tr.durations("sfa.query_repr", time.Microsecond)), len(tracedUs))
	rep.set("index.seed_us", median(tr.durations("index.seed", time.Microsecond)), len(tracedUs))
	finishUs := median(tr.durations("index.finish", time.Microsecond))
	rep.set("index.finish_us", finishUs, len(tracedUs))
	rep.set("index.nodes_visited", float64(funnel.NodesVisited)/nq, len(in.pool))
	rep.set("index.leaves_refined", float64(funnel.LeavesRefined)/nq, len(in.pool))
	rep.set("index.series_lbd", float64(funnel.SeriesLBD)/nq, len(in.pool))
	rep.set("index.series_ed", float64(funnel.SeriesED)/nq, len(in.pool))
	rep.set("index.ed_fraction", float64(funnel.SeriesED)/nq/float64(in.data.Len()), len(in.pool))
	rep.set("index.lbd_prune_ratio", 1-float64(funnel.SeriesED)/float64(max(funnel.SeriesLBD, 1)), len(in.pool))
	rep.set("trace.overhead_us", median(tracedUs)-median(plainUs), len(plainUs))
	rep.set("api.overhead_us", median(apiUs), len(apiUs))
	return finishUs, nil
}

// sameNeighbors reports whether two exact answers agree: bit-identical
// distances at every rank, and the same id at every rank whose distance is
// unique and not the last (ties may legitimately order or choose ids
// differently).
func sameNeighbors(a, b []sofa.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	for i := 0; i+1 < len(a); i++ {
		tied := a[i].Dist == a[i+1].Dist || (i > 0 && a[i].Dist == a[i-1].Dist)
		if !tied && a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// traceKernels times the ED kernel (simd.SquaredEDEA at bound +Inf) on the
// workload's rows and the block LBD kernel (simd.LookupAccumBlockEA) over
// leaf-sized blocks of the workload's words, each for d/2, and derives the
// share estimates of the finish stage.
func traceKernels(tree *index.Tree, q *sfa.Quantizer, in inputs, rep *report, d time.Duration, finishUs float64) {
	n := in.data.Len()
	swept := min(n, edRows)
	step := n / swept
	inf := math.Inf(1)
	var sink float64
	var calls int
	start := time.Now()
	for pass := 0; pass < 1 || time.Since(start) < d/2; pass++ {
		qn := distance.ZNormalized(in.pool[pass%len(in.pool)])
		for i := 0; i < swept; i++ {
			sink += simd.SquaredEDEA(in.data.Row(i*step), qn, inf)
		}
		calls += swept
	}
	edNs := float64(time.Since(start).Nanoseconds()) / float64(calls)

	l := q.Segments()
	alphabet := 1 << q.MaxBits()
	words := tree.Words()
	out := make([]float64, leafSize)
	qr := make([]float64, l)
	tf := q.NewTransformer()
	var series int
	var lbdTime time.Duration
	for pass := 0; pass < 1 || lbdTime < d/2; pass++ {
		if _, err := tf.QueryRepr(distance.ZNormalized(in.pool[pass%len(in.pool)]), qr); err != nil {
			panic(err) // the pool's length was checked by the engine stage
		}
		table := lbdTable(q, qr, alphabet)
		t0 := time.Now()
		for b := 0; b < n; b += leafSize {
			m := min(leafSize, n-b)
			simd.LookupAccumBlockEA(words[b*l:(b+m)*l], m, table, alphabet, out, inf)
			sink += out[0]
		}
		lbdTime += time.Since(t0)
		series += n
	}
	kernelSink = sink
	lbdNs := float64(lbdTime.Nanoseconds()) / float64(series)

	rep.set("simd.ed_ns", edNs, calls)
	rep.set("simd.lbd_block_ns_per_series", lbdNs, series)
	finishNs := finishUs * 1e3
	rep.set("index.ed_share_est", rep.metrics["index.series_ed"].Value*edNs/finishNs, calls)
	rep.set("index.lbd_share_est", rep.metrics["index.series_lbd"].Value*lbdNs/finishNs, series)
}

// lbdTable builds the flat lower-bound table of a query representation:
// entry j*alphabet+s is the weighted squared distance from qr[j] to symbol
// s's interval at position j.
func lbdTable(q *sfa.Quantizer, qr []float64, alphabet int) []float64 {
	wts := q.Weights()
	table := make([]float64, len(qr)*alphabet)
	for j, v := range qr {
		for s := 0; s < alphabet; s++ {
			lo, hi := q.SymbolBounds(j, q.MaxBits(), byte(s))
			d := math.Max(math.Max(lo-v, v-hi), 0)
			table[j*alphabet+s] = wts[j] * d * d
		}
	}
	return table
}

// traceReload times loading a read workload's saved index and reports the
// write-path metrics, which a read workload does not exercise, as 0.
func traceReload(w workload, o runOpts, sx *sofa.Index, rep *report) error {
	path := filepath.Join(o.dir, "index.sofa")
	if _, err := saveIndex(sx, path); err != nil {
		return err
	}
	loads, lx, err := timeLoads(rep, path, w.Reloads)
	if err != nil {
		return err
	}
	if lx.Len() != sx.Len() {
		rep.wrong++
	}
	rep.set("core.load_ms", median(loads)*1e3, len(loads))
	for _, name := range []string{
		"core.insert_us", "core.delete_us", "core.upsert_us", "core.wal_append_us",
		"core.wal_sync_us", "core.compact_shard_ms", "core.compactions", "core.relearns",
		"core.checkpoint_ms", "core.replay_ms", "core.tombstoned_frac",
		"write_p50_us", "write_p99_us", "compact_pause_ms",
	} {
		rep.set(name, 0, 0)
	}
	return nil
}

// traceChurn runs n ops of the churn op stream with an in-memory core.Index
// twin receiving the same mutations, then times loading the container and
// reopening the durable index (whose answers are checked).
func traceChurn(w workload, o runOpts, in inputs, dx *sofa.DurableIndex, dir string, rep *report, n int) error {
	twin, err := core.Build(in.data, core.Config{
		Method:     core.SOFA,
		Shards:     w.Shards,
		Workers:    workers(),
		Compaction: churnPolicy,
	})
	rep.op(err)
	if err != nil {
		return fmt.Errorf("twin build: %w", err)
	}
	c := newChurnStream(o, rep, in, dx, twin)
	if err := c.run(n); err != nil {
		return err
	}
	col := twin.Collection()
	rep.set("core.insert_us", median(c.twinUs["insert"]), len(c.twinUs["insert"]))
	rep.set("core.delete_us", median(c.twinUs["delete"]), len(c.twinUs["delete"]))
	rep.set("core.upsert_us", median(c.twinUs["upsert"]), len(c.twinUs["upsert"]))
	rep.set("core.wal_append_us", median(c.writeUs)-median(c.twinWriteUs), len(c.writeUs))
	rep.set("core.wal_sync_us", median(c.syncUs), len(c.syncUs))
	rep.set("core.compact_shard_ms", median(c.shardMs), len(c.shardMs))
	rep.set("core.compactions", float64(col.Compactions()), 1)
	rep.set("core.relearns", float64(col.Relearns()), 1)
	rep.set("core.checkpoint_ms", c.checkpointMs, 1)
	rep.set("core.tombstoned_frac", mean(c.tombFrac), len(c.tombFrac))
	rep.set("write_p50_us", median(c.writeUs), len(c.writeUs))
	rep.set("write_p99_us", quantile(c.writeUs, 0.99), len(c.writeUs))
	rep.set("compact_pause_ms", mean(c.pauseMs), len(c.pauseMs))
	rep.info["twin_mismatches"] = c.twinMismatch

	sample := sampleQueries(o.seed, w.Verify)
	var loadMs float64
	rec, err := c.reopen(dir, 1, sample, func() error {
		t0 := time.Now()
		_, err := sofa.LoadFile(core.ContainerPath(dir))
		loadMs = ms(time.Since(t0))
		rep.op(err)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.load_ms", loadMs, 1)
	rep.set("core.replay_ms", ms(rec)-loadMs, 1)
	return nil
}
