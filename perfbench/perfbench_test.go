package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/sofa"
)

// tiny returns a small, quick variant of the named workload.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.Spec.Count = 2000
	w.Verify, w.Builds, w.Reloads = 4, 1, 1
	return w
}

// answers builds an index over w's inputs and answers the whole pool.
func answers(t *testing.T, in inputs, opts ...sofa.Option) (*sofa.Index, [][]sofa.Result) {
	t.Helper()
	ix, err := sofa.Build(in.data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.SearchBatch(context.Background(), poolQueries(in.pool, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ix, res
}

func TestOracleAcceptsExactAnswers(t *testing.T) {
	w := tiny(t, "astro-refine")
	in, err := generate(w, runOpts{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, res := answers(t, in, sofa.Shards(2))
	orc := newOracle(rows(in.data))
	for qi, r := range res {
		if err := orc.check(in.pool[qi], r); err != nil {
			t.Errorf("query %d: exact answer rejected: %v", qi, err)
		}
	}
}

func TestOracleRejectsPerturbedAnswers(t *testing.T) {
	w := tiny(t, "hf-large")
	in, err := generate(w, runOpts{seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, res := answers(t, in)
	orc := newOracle(rows(in.data))
	q, good := in.pool[0], res[0]
	if err := orc.check(q, good); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	perturb := func(f func(r []sofa.Result) []sofa.Result) []sofa.Result {
		return f(slices.Clone(good))
	}
	outside := sofa.ID(0)
	for slices.ContainsFunc(good, func(r sofa.Result) bool { return r.ID == outside }) {
		outside++
	}
	cases := map[string][]sofa.Result{
		"wrong id": perturb(func(r []sofa.Result) []sofa.Result {
			r[3].ID = outside
			return r
		}),
		"swapped ids with wrong distances": perturb(func(r []sofa.Result) []sofa.Result {
			r[0].ID, r[1].ID = r[1].ID, r[0].ID
			return r
		}),
		"duplicate id": perturb(func(r []sofa.Result) []sofa.Result {
			r[2] = r[1]
			return r
		}),
		"missing result": perturb(func(r []sofa.Result) []sofa.Result {
			return r[:len(r)-1]
		}),
		"last bit of a distance": perturb(func(r []sofa.Result) []sofa.Result {
			r[4].Dist = math.Nextafter(r[4].Dist, math.Inf(1))
			return r
		}),
	}
	for name, bad := range cases {
		if err := orc.check(q, bad); err == nil {
			t.Errorf("%s: perturbed answer accepted", name)
		}
	}

	dead := newOracle(rows(in.data))
	dead.remove(good[0].ID)
	if err := dead.check(q, good); err == nil {
		t.Error("answer with a deleted id accepted")
	}
}

// TestOracleModelsFloat32Reload checks both sides of the reload rule: a
// loaded index's answers match the float32 model and fail the float64 one,
// and an index still serving float64 rows fails the float32 model.
func TestOracleModelsFloat32Reload(t *testing.T) {
	w := tiny(t, "astro-refine")
	in, err := generate(w, runOpts{seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ix, f64res := answers(t, in)
	path := filepath.Join(t.TempDir(), "index.sofa")
	if _, err := saveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	lx, err := sofa.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f32res, err := lx.SearchBatch(context.Background(), poolQueries(in.pool, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	f64 := newOracle(rows(in.data))
	f32 := newOracle(rows(in.data))
	f32.checkpoint()
	f32.reload(false)
	caught64, caught32 := 0, 0
	for qi, q := range in.pool {
		if err := f32.check(q, f32res[qi]); err != nil {
			t.Errorf("query %d: loaded index rejected by the float32 model: %v", qi, err)
		}
		if f64.check(q, f32res[qi]) != nil {
			caught32++
		}
		if f32.check(q, f64res[qi]) != nil {
			caught64++
		}
	}
	if caught64 == 0 {
		t.Error("float64 rows served where float32 rows were expected: no answer rejected")
	}
	if caught32 == 0 {
		t.Error("float32 rows served where float64 rows were expected: no answer rejected")
	}
}

// TestOracleAcceptsReorderedTies uses duplicated rows: swapping the ids of
// two results at the same distance is still an exact answer.
func TestOracleAcceptsReorderedTies(t *testing.T) {
	w := tiny(t, "churn")
	in, err := generate(w, runOpts{seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < in.data.Len(); i += 2 {
		copy(in.data.Row(i), in.data.Row(i-1))
	}
	_, res := answers(t, in)
	orc := newOracle(rows(in.data))
	swapped := 0
	for qi, r := range res {
		if err := orc.check(in.pool[qi], r); err != nil {
			t.Fatalf("query %d: exact answer rejected: %v", qi, err)
		}
		for i := 0; i+1 < len(r); i++ {
			if r[i].Dist == r[i+1].Dist && r[i].ID != r[i+1].ID {
				r[i].ID, r[i+1].ID = r[i+1].ID, r[i].ID
				swapped++
				if err := orc.check(in.pool[qi], r); err != nil {
					t.Fatalf("query %d: tie reordering rejected: %v", qi, err)
				}
			}
		}
	}
	if swapped == 0 {
		t.Fatal("no ties to reorder")
	}
}

// TestSmokeWorkloads runs a tiny version of every workload, untraced and
// traced, and checks that it reports exactly its metric set with no wrong
// or failed answers.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			w := tiny(t, w.Name)
			o := runOpts{seed: 2, duration: 300 * time.Millisecond, trace: trace, dir: t.TempDir(), log: io.Discard}
			rep, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if rep.wrong != 0 || rep.failed != 0 || rep.checked == 0 {
				t.Errorf("%s trace=%v: %d wrong, %d failed, %d checked", w.Name, trace, rep.wrong, rep.failed, rep.checked)
			}
			if w.Churn && !trace {
				if n, _ := rep.info["compactions_seen"].(int); n == 0 {
					t.Errorf("%s: no compaction in the op stream", w.Name)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the workloads
// and metrics this package runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(perLayer))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: %+v, want %+v", i, got, m)
		}
	}
}
