// Command e2ebench measures Xatu's unpaced end-to-end detection capacity:
// a seeded simnet world replayed in process, as fast as backpressure
// allows, through the real serving path —
//
//	netflow.Exporter → in-process conn → ingest.Pipeline (1 decode + 1
//	aggregation worker) → engine.Engine (2 shards, Block, float32) → alert
//	fan-in
//
// — on populated auxiliary state: labeler alerts and attackers from the
// window before the replay, the world's blocklists and its spoof routing
// table. Every run also replays the same window serially on one goroutine
// as the correctness reference; with -trace 1 that serial pass is timed
// call by call and decomposed into a per-layer budget.
//
// Usage (from the repository root):
//
//	python3 e2ebench/run.py --workload aux-heavy --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with -trace 0, per-layer with
// -trace 1). The exit code is non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed of the generated worlds and replay inputs")
		seconds = flag.Int("seconds", 30, "measured replay time")
		traced  = flag.Int("trace", 0, "1 = report the per-layer metrics of a traced serial pass instead of the end-to-end metrics")
	)
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q (have %s)", *name, workloadNames())
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fatalf("%v", err)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "e2ebench: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res.report())
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line's shape.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is everything one invocation measured.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

// set records a metric; a value that is not a finite number is a defect
// of the run and fails it.
func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) report() report {
	return report{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// logf writes a human-readable progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
