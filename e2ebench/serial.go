package main

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
)

// The serial pass replays the inputs on one goroutine through the same
// public calls the serving path makes — Exporter.Export into a capturing
// conn, DecodeV5Into + SeqTracker.Track, Aggregator.AddBatch,
// SortRecordsCanonical, Monitor.ObserveStepTraced — timing each call
// (phase 1). Its alerts are the correctness reference for the concurrent
// run. When traced, every sealed step is decomposed right after the
// monitor observed it (phase 2, see decomposer), and the decomposition's
// time is taken out of the pass's wall time.

// serialPass is the serial pass's result.
type serialPass struct {
	wall    time.Duration // phase 1 only
	cpu     time.Duration // phase 1 only
	records int
	packets int
	bad     int // packets that failed to decode or were dropped as duplicates

	encodeNs, writeNs, decodeNs, aggNs, sortNs, stepNs float64
	stepDurs                                           []float64

	alerts []alertKey
	dc     *decomposition // nil unless traced
}

// capture is the serial pass's conn: it keeps a copy of every datagram
// until the pass decodes it, recycling the copies.
type capture struct {
	connStub
	pkts    [][]byte
	spare   [][]byte
	writeNs float64
}

func (c *capture) Write(p []byte) (int, error) {
	t := time.Now()
	var buf []byte
	if n := len(c.spare); n > 0 {
		buf, c.spare = c.spare[n-1], c.spare[:n-1]
	}
	c.pkts = append(c.pkts, append(buf[:0], p...))
	c.writeNs += float64(time.Since(t))
	return len(p), nil
}

// serial runs the serial pass over a fresh copy of the run's history,
// decomposing every step when traced.
func (s *sut) serial(traced bool) (*serialPass, error) {
	mon, err := engine.NewMonitor(engine.MonitorConfig{
		Models:        s.model.models,
		Default:       s.model.shared,
		Extractor:     s.extractor(s.runHistory()),
		Threshold:     s.model.threshold,
		RecordHistory: s.wl.RecordHistory,
		Precision:     core.PrecisionFloat32,
	})
	if err != nil {
		return nil, fmt.Errorf("serial monitor: %w", err)
	}
	conn := &capture{}
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Dial:     func() (net.Conn, error) { return conn, nil },
		BootTime: s.in.t0.Add(-time.Minute),
	})
	if err != nil {
		return nil, fmt.Errorf("serial exporter: %w", err)
	}
	defer exp.Close()
	var dec *decomposer
	if traced {
		dec = s.newDecomposer()
	}
	tracker := netflow.NewSeqTracker()
	agg := netflow.NewAggregator(worldStep, 2*worldStep)
	sp := &serialPass{stepDurs: make([]float64, 0, s.in.stepKeys)}
	var emitNs, decNs float64
	var decErr error

	emit := func(sealed []netflow.StepBatch) {
		te := time.Now()
		for _, b := range sealed {
			for dst, recs := range b.ByDst {
				t := time.Now()
				netflow.SortRecordsCanonical(recs)
				t1 := time.Now()
				alerts, _ := mon.ObserveStepTraced(dst, b.Start, recs)
				t2 := time.Now()
				d := float64(t2.Sub(t1))
				sp.sortNs += float64(t1.Sub(t))
				sp.stepNs += d
				sp.stepDurs = append(sp.stepDurs, d)
				k := int(b.Start.Sub(s.in.t0) / worldStep)
				for _, a := range alerts {
					sp.alerts = append(sp.alerts, alertKey{dst, int(a.Sig.Type), k})
				}
				if dec != nil && decErr == nil {
					decErr = dec.step(dst, b.Start, recs, alerts)
					decNs += float64(time.Since(t2))
				}
			}
			// Like the engine, the monitor side owns the records now.
			agg.RecycleShell(b)
		}
		emitNs += float64(time.Since(te))
	}
	chunk := make([]netflow.Record, 0, netflow.MaxRecordsPerPacket)
	drain := func() {
		for _, pkt := range conn.pkts {
			t := time.Now()
			h, recs, err := netflow.DecodeV5Into(pkt, chunk[:0])
			drop := err != nil || tracker.Track("bench", h, len(recs))
			t1 := time.Now()
			sp.decodeNs += float64(t1.Sub(t))
			sp.packets++
			if drop {
				sp.bad++
				continue
			}
			agg.AddBatch(recs, emit)
			sp.aggNs += float64(time.Since(t1))
			chunk = recs
		}
		conn.spare = append(conn.spare, conn.pkts...)
		conn.pkts = conn.pkts[:0]
	}

	cpu0 := processCPU()
	start := time.Now()
	lo := 0
	for _, hi := range s.in.stepEnd {
		t := time.Now()
		for i := lo; i < hi; i++ {
			if err := exp.Export(s.in.recs[i]); err != nil {
				return nil, fmt.Errorf("serial export: %w", err)
			}
		}
		sp.encodeNs += float64(time.Since(t))
		drain()
		lo = hi
	}
	t := time.Now()
	if err := exp.Flush(); err != nil {
		return nil, fmt.Errorf("serial flush: %w", err)
	}
	sp.encodeNs += float64(time.Since(t))
	drain()
	t = time.Now()
	emit(agg.Flush())
	sp.aggNs += float64(time.Since(t))
	// The decomposition ran on this goroutine inside the pass; its time
	// (wall, and CPU taken as equal to it) is not the pass's.
	sp.wall = time.Since(start) - time.Duration(decNs)
	sp.cpu = processCPU() - cpu0 - time.Duration(decNs)
	if decErr != nil {
		return nil, decErr
	}

	sp.writeNs = conn.writeNs
	sp.encodeNs -= sp.writeNs
	sp.aggNs -= emitNs
	sp.records = len(s.in.recs)
	if dec != nil {
		sp.dc = &dec.dc
	}
	return sp, nil
}

// decomposition is phase 2's result: totals over every step.
type decomposition struct {
	extractNs, normNs, forwardNs, recordNs       float64
	blocklistNs, spoofNs, histQueryNs, clusterNs float64
	clusterCalls, recordAlerts                   int
}

// benchSink keeps replayed call results live.
var benchSink float64

// decomposer is phase 2. For each sealed step it first repeats the
// step's own call sequence — ExtractInto, Normalize, the batched forward
// on fresh streams (one customer's channels per model lane, as
// Monitor.ObserveStep enrolls them), the history writes — and then
// replays the registry calls ExtractInto made, one layer at a time, with
// ExtractInto's gates. The two halves use separate fresh copies of the
// run's history, each re-applying the monitor's history writes after the
// step that made them, so every replayed query sees the monitor's
// registry state. Running right after the monitor's own step exposes
// both phases to the same machine conditions, so their differences (the
// engine and features self times) do not drift with background load.
type decomposer struct {
	s                *sut
	dc               decomposition
	hist, replayHist *attackhist.Registry
	ex, replayEx     *features.Extractor
	scratch          features.Scratch
	feat             []float64
	lanes            []*lane
	laneOf           map[*core.Model]*lane
	streams          map[chanKey]*core.Stream
}

// lane batches one model's channels for one step.
type lane struct {
	runner  *core.BatchRunner32
	streams []*core.Stream
	xs      [][]float64
	out     []float64
}

type chanKey struct {
	customer netip.Addr
	atype    ddos.AttackType
}

var clusteringVariants = []attackhist.ClusteringVariant{
	attackhist.ClusteringDot, attackhist.ClusteringMin, attackhist.ClusteringMax,
}

func (s *sut) newDecomposer() *decomposer {
	d := &decomposer{
		s:          s,
		hist:       s.runHistory(),
		replayHist: s.runHistory(),
		laneOf:     map[*core.Model]*lane{},
		streams:    map[chanKey]*core.Stream{},
	}
	d.ex, d.replayEx = s.extractor(d.hist), s.extractor(d.replayHist)
	return d
}

func (d *decomposer) step(c netip.Addr, at time.Time, flows []netflow.Record, alerts []ddos.Alert) error {
	dc := &d.dc
	t := time.Now()
	d.feat = d.ex.ExtractInto(d.feat, &d.scratch, c, at, flows)
	t1 := time.Now()
	features.Normalize(d.feat)
	dc.extractNs += float64(t1.Sub(t))
	dc.normNs += float64(time.Since(t1))

	for atype := ddos.AttackType(0); atype < ddos.NumAttackTypes; atype++ {
		m := d.s.model.models[atype]
		if m == nil {
			m = d.s.model.shared
		}
		l := d.laneOf[m]
		if l == nil {
			r, err := core.NewBatchRunner32(m)
			if err != nil {
				return fmt.Errorf("batch runner: %w", err)
			}
			l = &lane{runner: r}
			d.laneOf[m] = l
			d.lanes = append(d.lanes, l)
		}
		k := chanKey{c, atype}
		strm := d.streams[k]
		if strm == nil {
			strm = l.runner.NewStream()
			d.streams[k] = strm
		}
		l.streams = append(l.streams, strm)
		l.xs = append(l.xs, d.feat)
	}
	t = time.Now()
	for _, l := range d.lanes {
		if len(l.streams) == 0 {
			continue
		}
		if cap(l.out) < len(l.streams) {
			l.out = make([]float64, len(l.streams))
		}
		l.out = l.runner.Push(l.streams, l.xs, l.out[:len(l.streams)])
	}
	dc.forwardNs += float64(time.Since(t))
	for _, l := range d.lanes {
		if len(l.streams) > 0 {
			benchSink += l.out[0]
		}
		l.streams, l.xs = l.streams[:0], l.xs[:0]
	}
	if d.s.wl.RecordHistory && len(alerts) > 0 {
		t = time.Now()
		recordHistory(d.hist, c, at, flows, alerts)
		dc.recordNs += float64(time.Since(t))
		dc.recordAlerts += len(alerts)
	}

	// The registry calls ExtractInto made for this step.
	ex, hist := d.replayEx, d.replayHist
	hits := 0
	t = time.Now()
	for i := range flows {
		if ex.Blocklists.AnyListedAt(flows[i].Src, at) {
			hits++
		}
	}
	t1 = time.Now()
	for i := range flows {
		if ex.Spoof.IsSpoofed(flows[i].Src, 0) {
			hits++
		}
	}
	t2 := time.Now()
	if hist.HasAttackers(c) {
		for i := range flows {
			if hist.WasAttacker(c, flows[i].Src, at) {
				hits++
			}
		}
	}
	sev := hist.SeverityHistogram(c, at, ex.A4Window)
	t3 := time.Now()
	dc.blocklistNs += float64(t1.Sub(t))
	dc.spoofNs += float64(t2.Sub(t1))
	dc.histQueryNs += float64(t3.Sub(t2))
	for _, v := range clusteringVariants {
		t := time.Now()
		benchSink += hist.Clustering(c, at, ex.A5Window, v)
		el := float64(time.Since(t))
		dc.clusterNs += el
		dc.histQueryNs += el
		dc.clusterCalls++
	}
	benchSink += float64(hits) + sev[0]
	if d.s.wl.RecordHistory {
		recordHistory(hist, c, at, flows, alerts)
	}
	return nil
}

// recordHistory applies the history writes Monitor.ObserveStepTraced makes
// for a step's alerts in RecordHistory mode.
func recordHistory(hist *attackhist.Registry, c netip.Addr, at time.Time, flows []netflow.Record, alerts []ddos.Alert) {
	for _, a := range alerts {
		hist.RecordAlert(a)
		for _, r := range flows {
			if a.Sig.Matches(r) {
				hist.RecordAttacker(c, r.Src, at)
			}
		}
	}
}

// historyPairs counts the (customer, attacker) pairs in a registry.
func historyPairs(r *attackhist.Registry) int {
	n := 0
	forever := time.Unix(1<<40, 0)
	for _, c := range r.Customers() {
		n += r.AttackerCount(c, forever)
	}
	return n
}
