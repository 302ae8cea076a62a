// Command perfbench is the repository benchmark. It drives the public
// repro/sofa API through one workload, checks every verified answer against
// a brute-force oracle, and prints the result as one JSON object on the last
// line of standard output.
//
//	perfbench --workload hf-large --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (see endToEnd); with
// --trace 1 it runs the traced variant, which times calls into each layer's
// exported functions from this package and reports the per-layer metrics
// (see perLayer). Inputs are generated from --seed with internal/dataset, so
// a seed always produces the same data, queries and operation stream.
//
// Build and run it through run.sh, which keeps the Go build cache inside
// the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the checkout
// root the benchmark runs from: the binary, the Go build cache, scratch
// index directories and span files.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its result. It
// returns the process exit code: 0 when the run completed and every verified
// answer was exact, 1 when an answer was wrong (the result is still printed),
// 2 when the run could not complete.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hf-large, astro-refine or churn")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	o := runOpts{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		dir:      scratch,
		log:      stderr,
	}
	rep, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 2
	}
	if o.trace {
		if err := writeSpans(filepath.Join(buildDir, "traces"), w.Name, *seed, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	if err := printReport(stdout, w, o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if rep.wrong > 0 {
		return 1
	}
	return 0
}

// runWorkload dispatches to the workload's untraced or traced run.
func runWorkload(w workload, o runOpts) (*report, error) {
	rep := newReport()
	var err error
	switch {
	case o.trace:
		err = runTraced(w, o, rep)
	case w.Churn:
		err = runChurn(w, o, rep)
	default:
		err = runRead(w, o, rep)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := rep.metrics[m.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
	}
	if len(rep.metrics) != len(want) {
		return nil, errors.New("run measured metrics outside its metric set")
	}
	return rep, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the detail line (environment, sample counts, oracle
// tallies) and then the result line.
func printReport(out io.Writer, w workload, o runOpts, rep *report) error {
	detail := map[string]any{
		"workload":        w.Name,
		"seed":            o.seed,
		"seconds":         o.duration.Seconds(),
		"trace":           o.trace,
		"env":             environment(),
		"samples":         rep.samples,
		"wrong_answers":   rep.wrong,
		"checked_answers": rep.checked,
		"failed_ops_frac": float64(rep.failed) / float64(max(rep.attempted, 1)),
		"info":            rep.info,
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"detail": detail}); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct:   rep.wrong == 0 && rep.checked > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
}
