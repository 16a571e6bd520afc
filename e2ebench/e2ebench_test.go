package main

import (
	"encoding/json"
	"math"
	"net/netip"
	"os"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4}, {99, 4.96},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values should be NaN")
	}
}

func TestBudgetSumsToWall(t *testing.T) {
	b := budget{wall: 1000}
	b.add("netflow", 300)
	b.add("engine", -20) // a self time from a difference may come out negative
	b.add("attackhist", 600)
	b.add("netflow", 50)
	if got := b.accounted() + b.unaccounted(); got != b.wall {
		t.Fatalf("self times + unaccounted = %v, want the wall time %v", got, b.wall)
	}
	if got := b.unaccounted(); got != 70 {
		t.Errorf("unaccounted = %v, want 70", got)
	}
	if got := b.share("netflow"); got != 0.35 {
		t.Errorf("netflow share = %v, want 0.35 (parts of one layer add up)", got)
	}
	if got := b.share("core"); got != 0 {
		t.Errorf("share of an absent layer = %v, want 0", got)
	}
	var sum float64
	for _, l := range []string{"netflow", "engine", "attackhist"} {
		sum += b.share(l)
	}
	if math.Abs(sum+b.unaccounted()/b.wall-1) > 1e-12 {
		t.Errorf("shares + unaccounted fraction = %v, want 1", sum+b.unaccounted()/b.wall)
	}
	if (&budget{}).share("netflow") != 0 {
		t.Error("share of an empty budget should be 0")
	}
}

func TestFailedFracAndStepAccounting(t *testing.T) {
	if got := failedFrac(3, 12); got != 0.25 {
		t.Errorf("failedFrac(3, 12) = %v", got)
	}
	if got := failedFrac(0, 0); got != 0 {
		t.Errorf("failedFrac with nothing attempted = %v, want 0", got)
	}
	expected := []int32{3, 0, 2, 1, 4}
	cases := []struct {
		name                 string
		counts, recs         []int32
		extra                int
		submitted, processed uint64
		want                 stepAccount
	}{
		{"exactly once", []int32{1, 0, 1, 1, 1}, []int32{3, 0, 2, 1, 4}, 0, 4, 4,
			stepAccount{attempted: 4}},
		{"missing and duplicated", []int32{0, 0, 2, 1, 1}, []int32{0, 0, 4, 1, 4}, 0, 4, 4,
			stepAccount{attempted: 4, wrongCount: 2, failed: 2}},
		{"lost records", []int32{1, 0, 1, 1, 1}, []int32{2, 0, 2, 1, 4}, 0, 4, 4,
			stepAccount{attempted: 4, wrongRecords: 1, failed: 1}},
		{"unexpected steps", []int32{1, 1, 1, 1, 1}, []int32{3, 5, 2, 1, 4}, 2, 7, 7,
			stepAccount{attempted: 4, unexpected: 3, failed: 3}},
		{"accepted but unprocessed", []int32{1, 0, 1, 1, 1}, []int32{3, 0, 2, 1, 4}, 0, 4, 1,
			stepAccount{attempted: 4, unprocessed: 3, failed: 3}},
	}
	for _, c := range cases {
		got := accountSteps(expected, c.counts, c.recs, c.extra, c.submitted, c.processed)
		if got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
		if f := failedFrac(got.failed, got.attempted); f < 0 || f > 1 {
			t.Errorf("%s: failed fraction %v outside [0, 1]", c.name, f)
		}
	}
}

func TestOverheadFrac(t *testing.T) {
	if got := overheadFrac(105, 100); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("overheadFrac(105, 100) = %v, want 0.05", got)
	}
	if got := overheadFrac(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("overheadFrac(90, 100) = %v, want -0.1", got)
	}
	if got := overheadFrac(1, 0); got != 0 {
		t.Errorf("overheadFrac without a baseline = %v, want 0", got)
	}
}

func TestAlertDivergence(t *testing.T) {
	c := netip.MustParseAddr("10.0.0.1")
	a := []alertKey{{c, 1, 5}, {c, 1, 5}, {c, 2, 7}}
	b := []alertKey{{c, 1, 5}, {c, 3, 9}}
	if got := alertDivergence(a, b); got != 3 {
		t.Errorf("divergence = %d, want 3 (one extra duplicate, one only in a, one only in b)", got)
	}
	if got := alertDivergence(a, a); got != 0 {
		t.Errorf("divergence of a list with itself = %d", got)
	}
}

// smoke shrinks a workload to test size, keeping what makes it that
// workload: which layer dominates and whether history is written.
func smoke(wl workload) workload {
	wl.Customers = max(8, wl.Customers/5)
	wl.Botnets = max(2, wl.Botnets/5)
	wl.BenignFlows = max(4, wl.BenignFlows/2)
	wl.HistoryWork /= 25
	wl.ReplaySteps = min(wl.ReplaySteps, 24)
	return wl
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// checkMetrics asserts the result reports exactly the listed metrics,
// each with its listed unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, g.Value)
		}
	}
	var extra []string
	for n := range got {
		if !names[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

// TestSmokeWorkloads runs a small variant of every workload, traced and
// untraced, and checks the correctness gate, the reported metric set and
// the budget.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three worlds and trains three models")
	}
	spec := readSpec(t)
	for _, full := range workloads {
		wl := smoke(full)
		t.Run(wl.name, func(t *testing.T) {
			res, err := run(wl, 3, time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.problems) > 0 {
				t.Fatalf("correctness checks failed: %v", res.problems)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("attempted %d steps, %d failed", res.attempted, res.failed)
			}
			checkMetrics(t, res.metrics, spec.PerLayer)
			m := func(n string) float64 { return res.metrics[n].Value }
			var shares float64
			for _, l := range budgetLayers {
				shares += m("budget." + l + "_frac")
			}
			if math.Abs(shares+m("trace.unaccounted_frac")-1) > 1e-9 {
				t.Errorf("budget shares + unaccounted = %v, want 1", shares+m("trace.unaccounted_frac"))
			}
			if rec := m("attackhist.record_ns_per_alert"); (rec > 0) != (wl.RecordHistory && m("engine.alerts") > 0) {
				t.Errorf("attackhist.record_ns_per_alert = %v with RecordHistory %v and %v alerts",
					rec, wl.RecordHistory, m("engine.alerts"))
			}
			if !wl.RecordHistory && m("attackhist.pairs_end") != m("attackhist.pairs_start") {
				t.Errorf("frozen history changed: %v pairs → %v", m("attackhist.pairs_start"), m("attackhist.pairs_end"))
			}

			res, err = run(wl, 3, time.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.problems) > 0 {
				t.Fatalf("correctness checks failed: %v", res.problems)
			}
			checkMetrics(t, res.metrics, spec.EndToEnd)
			for n, v := range res.metrics {
				if !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, v.Value)
				}
			}
		})
	}
}
