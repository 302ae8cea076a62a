package main

import (
	"bufio"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/simd"
)

// k is the neighbor count of every query.
const k = 10

// poolSize is the number of distinct queries of a workload. It is large
// enough that the slowest 1% of the pool, which sets query_p99_ms, is many
// queries.
const poolSize = 2048

// edRows caps the rows the ED kernel timing sweeps per query.
const edRows = 20_000

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop with one client issuing exact k-NN queries against a SOFA
// index.
type workload struct {
	Name string
	Why  string
	Spec dataset.Spec // generator; Spec.Count is the collection size
	// Shards is the index's shard count.
	Shards int
	// Churn selects the durable read/write workload instead of the read
	// workload.
	Churn bool
	// Verify is how many answers of each phase the oracle checks.
	Verify int
	// Builds is how many times set-up runs; setup_s is their median.
	Builds int
	// Reloads is how many times the index is loaded back from disk (a saved
	// container on a read workload, a reopen on churn); recovery_s is their
	// median.
	Reloads int
}

// Churn op mix and cadence.
const (
	searchShare  = 0.60
	insertShare  = 0.20
	deleteShare  = 0.10
	compactEvery = 250 // ops between Compact calls
	churnVerifyP = 8   // one search in churnVerifyP is checked by the oracle
	// churnOpsPerSecond sizes the op stream: it runs this many ops per
	// second of the run, which with the batches after each Compact takes
	// about that long on a 2-vCPU machine. A fixed op count, rather than a
	// deadline, makes the compactions, the re-learns and the log replayed
	// at the reopen the same on every run of a seed.
	churnOpsPerSecond = 2100
)

func catalogSpec(name string, count int) dataset.Spec {
	s, err := dataset.ByName(name)
	if err != nil {
		panic(err)
	}
	if count > 0 {
		s.Count = count
	}
	return s
}

// workloads returns the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		{
			Name:    "hf-large",
			Why:     "LenDB-like high-frequency series, 200k x 256 (larger than L3): prep, seed, traversal and block LBD carry the time; few EDs",
			Spec:    catalogSpec("LenDB", 200_000),
			Shards:  1,
			Verify:  8,
			Builds:  5,
			Reloads: 7,
		},
		{
			Name:    "astro-refine",
			Why:     "Astro red noise, 20k x 256 (fits in cache): pruning is weak, so ED refinement carries the time",
			Spec:    catalogSpec("Astro", 0),
			Shards:  1,
			Verify:  16,
			Builds:  15,
			Reloads: 9,
		},
		{
			Name:    "churn",
			Why:     "SALD smooth series, 20k x 128, 2 shards, durable: 60% search, 40% insert/delete/upsert with compaction, checkpoint and reopen",
			Spec:    catalogSpec("SALD", 0),
			Shards:  2,
			Churn:   true,
			Verify:  16,
			Builds:  9,
			Reloads: 9,
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts are the per-run settings from the command line.
type runOpts struct {
	seed     int64
	duration time.Duration // measured time of the run
	trace    bool
	dir      string // scratch directory, removed after the run
	log      io.Writer
}

// workers is the parallelism budget: one per CPU.
func workers() int { return runtime.NumCPU() }

// inputs are a workload's generated series.
type inputs struct {
	data  *distance.Matrix // the collection, z-normalized
	pool  [][]float64      // queries
	fresh [][]float64      // raw (not normalized) series for inserts and upserts
}

// generate makes a workload's inputs from the seed. A churn run gets enough
// fresh series that inserts and upserts (30% of its ops) never reuse one:
// reused shapes would pile up near-duplicates and make queries slower as the
// stream goes on.
func generate(w workload, o runOpts) (inputs, error) {
	seed := o.seed
	data, err := dataset.Generate(w.Spec, seed)
	if err != nil {
		return inputs{}, err
	}
	qs, err := dataset.GenerateQueries(w.Spec, poolSize, seed)
	if err != nil {
		return inputs{}, err
	}
	in := inputs{data: data, pool: rows(qs)}
	if w.Churn {
		fs := w.Spec
		fs.Count = streamOps(o.duration) * 2 / 5
		fm, err := dataset.Generate(fs, seed+1)
		if err != nil {
			return inputs{}, err
		}
		// Give each fresh series its own scale and offset so Insert and
		// Upsert have real normalization work to do.
		in.fresh = rows(fm)
		for i, r := range in.fresh {
			scale, off := 0.5+float64(i%7), float64(i%5)-2
			for j := range r {
				r[j] = r[j]*scale + off
			}
		}
	}
	return in, nil
}

func rows(m *distance.Matrix) [][]float64 {
	out := make([][]float64, m.Len())
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"simd":       simd.Impl(),
		"simd_block": simd.BlockImpl(),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"dirty":      "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["dirty"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
