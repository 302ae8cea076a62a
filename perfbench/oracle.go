package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/distance"
	"repro/sofa"
)

// oracle is the brute-force reference for exact k-NN answers. It models the
// index's live set — each live public id with the row the index stores for
// it — and searches it exhaustively with distance.SquaredEDEarlyAbandon at
// bound +Inf, the kernel the index refines with, so an exact answer matches
// it bit for bit. It compares sorted distance vectors and checks each
// returned id, never id lists: ties may legitimately reorder ids.
//
// The rows it holds follow the index's storage rules: Build keeps the given
// (already z-normalized) rows, Insert and Upsert store
// distance.ZNormalized(input), and a load from a container restores
// ZNormalize(float64(float32(row))) for every row the container holds, while
// rows replayed from the write-ahead log stay as written.
type oracle struct {
	rows  [][]float64 // by public id; nil once deleted
	saved []bool      // the row's current version is in the last checkpoint
	live  []sofa.ID   // live ids, in no particular order
	pos   []int       // index of each id in live; -1 once deleted
	dists []float64   // scratch
}

func newOracle(data [][]float64) *oracle {
	o := &oracle{}
	for _, r := range data {
		o.add(r)
	}
	return o
}

// add models a new row under the next public id and returns that id.
func (o *oracle) add(row []float64) sofa.ID {
	id := sofa.ID(len(o.rows))
	o.rows = append(o.rows, row)
	o.saved = append(o.saved, false)
	o.pos = append(o.pos, len(o.live))
	o.live = append(o.live, id)
	return id
}

// insert models Insert of the raw series, which the index assigned id.
func (o *oracle) insert(id sofa.ID, series []float64) error {
	if want := sofa.ID(len(o.rows)); id != want {
		return fmt.Errorf("insert returned id %d, want the next id %d", id, want)
	}
	o.add(distance.ZNormalized(series))
	return nil
}

// upsert models Upsert of the raw series under a live id.
func (o *oracle) upsert(id sofa.ID, series []float64) {
	o.rows[id] = distance.ZNormalized(series)
	o.saved[id] = false
}

// remove models Delete of a live id.
func (o *oracle) remove(id sofa.ID) {
	i := o.pos[id]
	last := o.live[len(o.live)-1]
	o.live[i] = last
	o.pos[last] = i
	o.live = o.live[:len(o.live)-1]
	o.pos[id] = -1
	o.rows[id] = nil
}

// pick returns a live id chosen by rng.
func (o *oracle) pick(rng *rand.Rand) sofa.ID { return o.live[rng.Intn(len(o.live))] }

// Len is the number of live series.
func (o *oracle) Len() int { return len(o.live) }

// checkpoint records that every live row is now in the container.
func (o *oracle) checkpoint() {
	for _, id := range o.live {
		o.saved[id] = true
	}
}

// reload models loading the index back from its container: every row that
// was live at the last checkpoint and has not been rewritten since goes
// through the container's float32 precision and is normalized again. With
// inPlace the rows are converted where they are (for callers that no longer
// need the originals), otherwise into fresh memory.
func (o *oracle) reload(inPlace bool) {
	for _, id := range o.live {
		if !o.saved[id] {
			continue
		}
		r := o.rows[id]
		if !inPlace {
			r = make([]float64, len(r))
		}
		for j, v := range o.rows[id] {
			r[j] = float64(float32(v))
		}
		distance.ZNormalize(r)
		o.rows[id] = r
	}
}

// check reports why got is not an exact k-NN answer for query over the
// modeled live set, or nil when it is.
func (o *oracle) check(query []float64, got []sofa.Result) error {
	qn := distance.ZNormalized(query)
	inf := math.Inf(1)
	want := o.dists[:0]
	n := min(k, len(o.live))
	for _, id := range o.live {
		want = insertBounded(want, distance.SquaredEDEarlyAbandon(qn, o.rows[id], inf), n)
	}
	o.dists = want
	if len(got) != n {
		return fmt.Errorf("%d results, want %d", len(got), n)
	}
	seen := make(map[sofa.ID]bool, n)
	for i, r := range got {
		if r.ID < 0 || int(r.ID) >= len(o.rows) || o.rows[r.ID] == nil {
			return fmt.Errorf("rank %d: id %d is not live", i, r.ID)
		}
		if seen[r.ID] {
			return fmt.Errorf("rank %d: id %d returned twice", i, r.ID)
		}
		seen[r.ID] = true
		if d := distance.SquaredEDEarlyAbandon(qn, o.rows[r.ID], inf); math.Float64bits(d) != math.Float64bits(r.Dist) {
			return fmt.Errorf("rank %d: id %d reported at %v, its distance is %v", i, r.ID, r.Dist, d)
		}
		if math.Float64bits(r.Dist) != math.Float64bits(want[i]) {
			return fmt.Errorf("rank %d: distance %v, want %v", i, r.Dist, want[i])
		}
	}
	return nil
}

// insertBounded inserts d into the ascending slice s, keeping at most n
// values.
func insertBounded(s []float64, d float64, n int) []float64 {
	if len(s) == n {
		if n == 0 || d >= s[n-1] {
			return s
		}
		s = s[:n-1]
	}
	i := len(s)
	s = append(s, d)
	for i > 0 && s[i-1] > d {
		s[i] = s[i-1]
		i--
	}
	s[i] = d
	return s
}

// verify checks got with the oracle and records the outcome in rep; what
// names the answer in the log.
func (r *report) verify(o *oracle, query []float64, got []sofa.Result, log func(string, ...any), what string) {
	r.checked++
	if err := o.check(query, got); err != nil {
		r.wrong++
		if r.wrong <= 5 {
			log("wrong answer (%s): %v", what, err)
		}
	}
}
