package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own calls. Spans of one query share the query's root span as Parent.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the tracer's memory; spans past it are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory while on; they are written out when the run
// ends. While off, begin and end do nothing, so the same code path measures
// the untraced cost.
type tracer struct {
	on      bool
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// begin opens a span and returns its id (-1 when off or full).
func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on {
		return -1
	}
	if len(t.spans) == maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// durations returns the durations of the spans called name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// selfTimes returns, for each span name, the median self time in unit: the
// span's duration minus the time its child spans cover.
func selfTimes(spans []span, unit time.Duration) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string][]float64{}
	for i, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start-child[i])/float64(unit))
	}
	out := map[string]float64{}
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

// writeSpans writes spans as JSON lines to dir/<workload>-seed<seed>.jsonl.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
