package main

import (
	"math"
	"slices"
	"time"
)

// metricDef describes one reported metric. For end-to-end metrics Bound is
// the share of the parent's median by which the metric may worsen before a
// change counts as a regression. For per-layer metrics Moves names the
// end-to-end metric and workload the layer number is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the index sees. Every workload reports
// every one of them, and none of them can be 0. On a shared 2-vCPU machine
// the timings spread by up to about 20% between runs (quartile distance over
// the median of ten runs), most for the ones that use both CPUs: set-up,
// batches and loads. So every timing has the widest bound, 0.25, and only
// the byte counts, which repeat, have a tight one.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "batch_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "index_bytes_per_series", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "disk_bytes_per_live_series", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 (for example the write path on the read workloads).
var perLayer = []metricDef{
	{Name: "sfa.learn_ms", Unit: "ms", Better: "lower", Moves: "setup_s, mainly on hf-large"},
	{Name: "sfa.transform_ms", Unit: "ms", Better: "lower", Moves: "setup_s, mainly on hf-large"},
	{Name: "sfa.query_repr_us", Unit: "us", Better: "lower", Moves: "query_p50_ms on hf-large"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "index.seed_us", Unit: "us", Better: "lower", Moves: "query_p50_ms on hf-large"},
	{Name: "index.finish_us", Unit: "us", Better: "lower", Moves: "query_p50_ms and batch_qps on hf-large and astro-refine"},
	{Name: "index.nodes_visited", Unit: "count", Better: "lower", Moves: "query_p50_ms on hf-large"},
	{Name: "index.leaves_refined", Unit: "count", Better: "lower", Moves: "query_p50_ms on hf-large and astro-refine"},
	{Name: "index.series_lbd", Unit: "count", Better: "lower", Moves: "query_p50_ms on hf-large"},
	{Name: "index.series_ed", Unit: "count", Better: "lower", Moves: "query_p50_ms and batch_qps on astro-refine"},
	{Name: "index.ed_fraction", Unit: "ratio", Better: "lower", Moves: "query_p50_ms on astro-refine"},
	{Name: "index.lbd_prune_ratio", Unit: "ratio", Better: "higher", Moves: "query_p50_ms on astro-refine"},
	{Name: "simd.ed_ns", Unit: "ns", Better: "lower", Moves: "batch_qps on astro-refine"},
	{Name: "simd.lbd_block_ns_per_series", Unit: "ns", Better: "lower", Moves: "query_p50_ms on hf-large"},
	{Name: "index.ed_share_est", Unit: "ratio", Better: "lower", Moves: "query_p50_ms on astro-refine (upper bound: ED abandons early)"},
	{Name: "index.lbd_share_est", Unit: "ratio", Better: "lower", Moves: "query_p50_ms on hf-large (upper bound)"},
	{Name: "api.overhead_us", Unit: "us", Better: "lower", Moves: "query_p50_ms on hf-large"},
	{Name: "trace.overhead_us", Unit: "us", Better: "lower", Moves: "none: cost of the benchmark's own spans"},
	{Name: "core.insert_us", Unit: "us", Better: "lower", Moves: "write_p50_us and ops_per_s on churn"},
	{Name: "core.delete_us", Unit: "us", Better: "lower", Moves: "write_p50_us and ops_per_s on churn"},
	{Name: "core.upsert_us", Unit: "us", Better: "lower", Moves: "write_p50_us and ops_per_s on churn"},
	{Name: "core.wal_append_us", Unit: "us", Better: "lower", Moves: "write_p50_us and ops_per_s on churn"},
	{Name: "core.wal_sync_us", Unit: "us", Better: "lower", Moves: "none: informational, fsync of the shared disk"},
	{Name: "core.compact_shard_ms", Unit: "ms", Better: "lower", Moves: "compact_pause_ms and ops_per_s on churn"},
	{Name: "core.compactions", Unit: "count", Better: "lower", Moves: "compact_pause_ms and ops_per_s on churn"},
	{Name: "core.relearns", Unit: "count", Better: "lower", Moves: "compact_pause_ms and ops_per_s on churn"},
	{Name: "core.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "none on a timed metric: checkpoints run outside the timed op stream"},
	{Name: "core.load_ms", Unit: "ms", Better: "lower", Moves: "recovery_s on every workload"},
	{Name: "core.replay_ms", Unit: "ms", Better: "lower", Moves: "recovery_s on churn"},
	{Name: "core.tombstoned_frac", Unit: "ratio", Better: "lower", Moves: "query_p50_ms on churn"},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on churn"},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Moves: "ops_per_s on churn"},
	{Name: "compact_pause_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s and query_p99_ms on churn"},
}

// unitOf returns the unit of a defined metric.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("perfbench: undefined metric " + name)
}

// report accumulates one run's metrics, sample counts and answer checks.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	info      map[string]any
	attempted int64
	failed    int64
	checked   int
	wrong     int
	spans     []span
}

func newReport() *report {
	return &report{
		metrics: map[string]metric{},
		samples: map[string]int{},
		info:    map[string]any{},
	}
}

// set records a metric value and the number of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name)}
	r.samples[name] = samples
}

// op counts one attempted operation and whether it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank rule (0 for
// none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailLatency is the p99 of latencies recorded in order: the median over
// consecutive chunks of the chunk's p99, so one burst of interference from
// outside the program moves one chunk, not the result. chunk is the query
// pool's size, so each whole pass over the pool is one chunk.
func tailLatency(lat []float64, chunk int) (p99 float64, perChunk []float64) {
	for i := 0; i+chunk <= len(lat); i += chunk {
		perChunk = append(perChunk, quantile(lat[i:i+chunk], 0.99))
	}
	if len(perChunk) == 0 {
		return quantile(lat, 0.99), nil
	}
	return median(perChunk), perChunk
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
