package main

import (
	"fmt"
	"sort"
	"time"
)

// setups is how many times a run builds the whole set-up; setup_s is the
// median, and the last set-up is the one measured.
const setups = 3

// run sets the workload up, replays it through fresh systems until dur of
// replay has been measured, replays it serially as the correctness
// reference, and reports.
func run(wl workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	var (
		s     *sut
		times []setupTimes
	)
	for i := 0; i < setups; i++ {
		if s != nil {
			// Drop the previous set-up before the next one reads its heap
			// baseline.
			if err := s.first.close(); err != nil {
				return nil, err
			}
			s = nil
		}
		var err error
		if s, err = setup(wl, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, s.times)
		logf("set-up %d: world %v, history %v, train %v, build %v", i+1,
			s.times.world.Round(time.Millisecond), s.times.history.Round(time.Millisecond),
			s.times.train.Round(time.Millisecond), s.times.build.Round(time.Millisecond))
	}
	pairsStart := historyPairs(s.history)
	logf("%s seed %d: %d customers, %d replay steps (%d customer-steps, %d records), %d history pairs, threshold %.4f",
		wl.name, seed, len(s.world.Customers), s.in.steps, s.in.stepKeys, len(s.in.recs), pairsStart, s.model.threshold)

	// Closed-loop repetitions, each through a freshly built system. In a
	// traced run every other repetition carries the wait probes; the
	// others stay unprobed as the CPU baseline, so a traced run makes at
	// least one of each.
	var reps []*repetition
	var measured time.Duration
	for i := 0; measured < dur || (traced && i < 2); i++ {
		sys := s.first
		if i > 0 {
			var err error
			if sys, err = s.build(traced && i%2 == 1); err != nil {
				return nil, err
			}
		}
		rep, err := s.replay(sys)
		if err != nil {
			return nil, err
		}
		rep.pairsEnd = historyPairs(sys.hist)
		logf("repetition %d: %v, %.0f steps/s, %.0f records/s, %d alerts", i, rep.wall.Round(time.Millisecond),
			float64(rep.steps)/rep.wall.Seconds(), float64(rep.records)/rep.wall.Seconds(), len(rep.alerts))
		reps = append(reps, rep)
		measured += rep.wall
	}

	ref, err := s.serial(traced)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if ref.bad != 0 || len(ref.stepDurs) != s.in.stepKeys {
		res.problems = append(res.problems, fmt.Sprintf("serial reference: %d bad packets, %d of %d steps",
			ref.bad, len(ref.stepDurs), s.in.stepKeys))
	}
	var divergence []float64
	for i, rep := range reps {
		res.attempted += rep.attempted
		res.failed += rep.failed
		res.problems = append(res.problems, rep.problems...)
		d := alertDivergence(rep.alerts, ref.alerts)
		divergence = append(divergence, float64(d))
		if d != 0 && !wl.RecordHistory {
			res.problems = append(res.problems, fmt.Sprintf(
				"repetition %d: %d alerts differ from the serial reference (%d concurrent, %d reference)",
				i, d, len(rep.alerts), len(ref.alerts)))
		}
	}
	e2e := endToEnd(s, reps, times)
	layers := perLayer(reps, times, divergence, pairsStart)
	if traced {
		tracedLayers(layers, ref, reps)
	}
	logf("%s: %d repetitions, %d steps attempted, %d failed, %d alerts in the reference",
		wl.name, len(reps), res.attempted, res.failed, len(ref.alerts))
	printTable("end-to-end", e2e)
	printTable("per-layer", layers)
	res.problems = append(res.problems, e2e.problems...)
	res.problems = append(res.problems, layers.problems...)
	if len(res.problems) > 8 {
		res.problems = append(res.problems[:8], fmt.Sprintf("… and %d more", len(res.problems)-8))
	}
	if traced {
		res.metrics = layers.metrics
	} else {
		res.metrics = e2e.metrics
	}
	return res, nil
}

// alertDivergence is the size of the multiset symmetric difference of two
// alert lists.
func alertDivergence(a, b []alertKey) int {
	count := map[alertKey]int{}
	for _, k := range a {
		count[k]++
	}
	for _, k := range b {
		count[k]--
	}
	d := 0
	for _, n := range count {
		if n < 0 {
			n = -n
		}
		d += n
	}
	return d
}

// endToEnd reports the user-visible metrics: medians over repetitions.
func endToEnd(s *sut, reps []*repetition, times []setupTimes) *result {
	r := &result{}
	var stepsPS, recsPS, cpuPerK, heap, setup []float64
	for _, rep := range reps {
		w := rep.wall.Seconds()
		stepsPS = append(stepsPS, float64(rep.steps)/w)
		recsPS = append(recsPS, float64(rep.records)/w)
		cpuPerK = append(cpuPerK, float64(rep.cpu)/float64(rep.steps)/1e3)
		heap = append(heap, (float64(rep.heapBytes)-float64(s.heapBase))/(1<<20))
	}
	for _, t := range times {
		setup = append(setup, t.total().Seconds())
	}
	r.set("steps_per_s", "steps/s", median(stepsPS))
	r.set("records_per_s", "records/s", median(recsPS))
	r.set("cpu_ms_per_kstep", "ms", median(cpuPerK))
	r.set("heap_mb", "MiB", median(heap))
	r.set("setup_s", "s", median(setup))
	return r
}

// perLayer reports the layer metrics the concurrent repetitions measure.
func perLayer(reps []*repetition, times []setupTimes, divergence []float64, pairsStart int) *result {
	r := &result{}
	var failed, attempted int
	var busy, hw, alerts, missFrac, allocPS, gcFrac, pairsEnd, handoff, submit []float64
	for _, rep := range reps {
		failed += rep.failed
		attempted += rep.attempted
		busy = append(busy, float64(rep.stepTotal)/(float64(rep.wall)*shards))
		hw = append(hw, float64(rep.queueHighWater))
		alerts = append(alerts, float64(len(rep.alerts)))
		if n := rep.poolHits + rep.poolMisses; n > 0 {
			missFrac = append(missFrac, float64(rep.poolMisses)/float64(n))
		}
		allocPS = append(allocPS, float64(rep.allocB)/float64(rep.steps))
		if rep.cpu > 0 {
			gcFrac = append(gcFrac, rep.gcCPU/rep.cpu.Seconds())
		}
		pairsEnd = append(pairsEnd, float64(rep.pairsEnd))
		if rep.probed {
			handoff = append(handoff, float64(rep.handoffWaitNs)/float64(max(1, rep.packets)))
			submit = append(submit, float64(rep.submitWaitNs)/float64(max(1, rep.submits)))
		}
	}
	r.set("failed_frac", "ratio", failedFrac(failed, attempted))
	r.set("engine.shard_busy_frac", "ratio", median(busy))
	r.set("engine.queue_high_water", "count", median(hw))
	r.set("engine.alerts", "count", median(alerts))
	r.set("engine.alert_divergence", "count", median(divergence))
	r.set("ingest.pool_miss_frac", "ratio", median(missFrac))
	r.set("runtime.alloc_bytes_per_step", "B", median(allocPS))
	r.set("runtime.gc_cpu_frac", "ratio", median(gcFrac))
	r.set("attackhist.pairs_start", "count", float64(pairsStart))
	r.set("attackhist.pairs_end", "count", median(pairsEnd))
	if len(handoff) > 0 {
		r.set("ingest.handoff_wait_ns_per_packet", "ns", median(handoff))
		r.set("engine.submit_wait_ns_per_step", "ns", median(submit))
	}
	var world, hist, train, build []float64
	for _, t := range times {
		world = append(world, t.world.Seconds())
		hist = append(hist, t.history.Seconds())
		train = append(train, t.train.Seconds())
		build = append(build, t.build.Seconds())
	}
	r.set("setup.world_s", "s", median(world))
	r.set("setup.history_s", "s", median(hist))
	r.set("setup.train_s", "s", median(train))
	r.set("setup.build_s", "s", median(build))
	return r
}

// budgetLayers are the layers the traced wall time is split across.
var budgetLayers = []string{"netflow", "features", "blocklist", "spoof", "attackhist", "core", "engine", "harness"}

// tracedLayers adds the metrics of the traced serial pass (phase 1) and
// its decomposition (phase 2), and the budget that splits phase 1's wall
// time into layer self times plus an unaccounted remainder.
func tracedLayers(r *result, sp *serialPass, reps []*repetition) {
	dc := sp.dc
	steps := float64(len(sp.stepDurs))
	recs := float64(sp.records)
	histNs := dc.histQueryNs + dc.recordNs
	featSelf := dc.extractNs - dc.blocklistNs - dc.spoofNs - dc.histQueryNs
	engSelf := sp.stepNs - dc.extractNs - dc.normNs - dc.forwardNs - dc.recordNs

	b := budget{wall: float64(sp.wall)}
	b.add("netflow", sp.encodeNs+sp.decodeNs+sp.aggNs+sp.sortNs)
	b.add("harness", sp.writeNs)
	b.add("features", featSelf+dc.normNs)
	b.add("blocklist", dc.blocklistNs)
	b.add("spoof", dc.spoofNs)
	b.add("attackhist", histNs)
	b.add("core", dc.forwardNs)
	b.add("engine", engSelf)

	r.set("netflow.encode_ns_per_record", "ns", sp.encodeNs/recs)
	r.set("netflow.decode_ns_per_packet", "ns", sp.decodeNs/float64(max(1, sp.packets)))
	r.set("netflow.aggregate_ns_per_record", "ns", sp.aggNs/recs)
	r.set("netflow.sort_ns_per_step", "ns", sp.sortNs/steps)
	r.set("features.extract_ns_per_step", "ns", dc.extractNs/steps)
	r.set("features.self_ns_per_step", "ns", featSelf/steps)
	r.set("features.normalize_ns_per_step", "ns", dc.normNs/steps)
	r.set("features.flows_per_step", "flows", recs/steps)
	r.set("blocklist.lookup_ns_per_flow", "ns", dc.blocklistNs/recs)
	r.set("spoof.check_ns_per_flow", "ns", dc.spoofNs/recs)
	r.set("attackhist.query_ns_per_step", "ns", dc.histQueryNs/steps)
	r.set("attackhist.clustering_ns_per_call", "ns", dc.clusterNs/float64(max(1, dc.clusterCalls)))
	rec := 0.0
	if dc.recordAlerts > 0 {
		rec = dc.recordNs / float64(dc.recordAlerts)
	}
	r.set("attackhist.record_ns_per_alert", "ns", rec)
	r.set("core.forward_ns_per_step", "ns", dc.forwardNs/steps)
	r.set("engine.step_ns_p50", "ns", percentile(sp.stepDurs, 50))
	r.set("engine.step_ns_p99", "ns", percentile(sp.stepDurs, 99))
	r.set("engine.step_samples", "count", float64(len(sp.stepDurs)))
	r.set("engine.self_ns_per_step", "ns", engSelf/steps)
	for _, l := range budgetLayers {
		r.set("budget."+l+"_frac", "ratio", b.share(l))
	}
	r.set("trace.wall_ns_per_step", "ns", b.wall/steps)
	r.set("trace.unaccounted_frac", "ratio", b.unaccounted()/b.wall)

	var untraced []float64
	for _, rep := range reps {
		if !rep.probed {
			untraced = append(untraced, float64(rep.cpu)/float64(rep.steps))
		}
	}
	r.set("trace.overhead_frac", "ratio", overheadFrac(float64(sp.cpu)/steps, median(untraced)))

	logf("traced budget over %.0f steps, wall %v (self times + unaccounted = wall):", steps, sp.wall.Round(time.Microsecond))
	for _, p := range b.parts {
		logf("  %-10s %8.0f ns/step  %6.2f%%", p.name, p.ns/steps, 100*p.ns/b.wall)
	}
	logf("  %-10s %8.0f ns/step  %6.2f%%  (timer reads, loop bookkeeping, and phase 2's calls running slower or faster than the monitor's)",
		"unaccounted", b.unaccounted()/steps, 100*b.unaccounted()/b.wall)
}

// printTable writes a result's metrics to standard error, sorted by name.
func printTable(title string, r *result) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	logf("%s metrics:", title)
	for _, n := range names {
		m := r.metrics[n]
		logf("  %-36s %16.4f %s", n, m.Value, m.Unit)
	}
}
