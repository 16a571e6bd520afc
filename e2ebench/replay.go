package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
)

// alertKey identifies one alert for the parity check.
type alertKey struct {
	customer netip.Addr
	atype    int
	step     int
}

// system is one freshly built serving path: exporter → conn → ingest →
// engine → fan-in. A system replays the inputs exactly once.
type system struct {
	hist *attackhist.Registry
	eng  *engine.Engine
	pipe *ingest.Pipeline
	exp  *netflow.Exporter
	sink *countingSink
	conn *pipeConn

	fanin  sync.WaitGroup
	alerts []alertKey // written by the fan-in goroutine until eng.Close
}

// build constructs a system over a fresh copy of the run's history.
// probes adds the wait timers of the traced configuration.
func (s *sut) build(probes bool) (*system, error) {
	sys := &system{hist: s.runHistory()}
	var err error
	sys.eng, err = engine.New(engine.Config{
		Monitor: engine.MonitorConfig{
			Models:        s.model.models,
			Default:       s.model.shared,
			Extractor:     s.extractor(sys.hist),
			Threshold:     s.model.threshold,
			RecordHistory: s.wl.RecordHistory,
			Precision:     core.PrecisionFloat32,
		},
		Shards: shards,
		Queue:  1024,
		Policy: engine.Block,
		Step:   worldStep,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	sys.sink = &countingSink{in: s.in, eng: sys.eng, timed: probes,
		counts: make([]int32, len(s.in.expected)), recs: make([]int32, len(s.in.expected))}
	sys.pipe, err = ingest.New(ingest.Config{
		DecodeWorkers: 1,
		AggWorkers:    1,
		Step:          worldStep,
		Lateness:      2 * worldStep,
		Sink:          sys.sink,
	})
	if err != nil {
		sys.eng.Close()
		return nil, fmt.Errorf("ingest: %w", err)
	}
	sys.conn = &pipeConn{pipe: sys.pipe, timed: probes}
	sys.exp, err = netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Dial:     func() (net.Conn, error) { return sys.conn, nil },
		BootTime: s.in.t0.Add(-time.Minute),
	})
	if err != nil {
		sys.pipe.Close()
		sys.eng.Close()
		return nil, fmt.Errorf("exporter: %w", err)
	}
	t0 := s.in.t0
	sys.fanin.Add(1)
	go func() {
		defer sys.fanin.Done()
		for ev := range sys.eng.Alerts() {
			sys.alerts = append(sys.alerts, alertKey{ev.Customer, int(ev.Alert.Sig.Type), int(ev.At.Sub(t0) / worldStep)})
		}
	}()
	return sys, nil
}

// close stops every goroutine of the system and waits for them.
func (sys *system) close() error {
	errs := []error{sys.exp.Close(), sys.pipe.Close(), sys.eng.Close()}
	sys.fanin.Wait()
	return errors.Join(errs...)
}

// countingSink is the pipeline's step sink: it forwards each sealed step
// to the engine and counts it per (customer, step), so the run can check
// that every replay step reached the engine exactly once. With timed set
// it also measures how long Submit blocks on a full shard mailbox.
// The pipeline's single aggregation worker is its only caller.
type countingSink struct {
	in     *inputs
	eng    *engine.Engine
	timed  bool
	counts []int32 // successful submissions per slot
	recs   []int32 // records submitted per slot
	extra  int     // submissions outside the replay
	errs   int
	waitNs int64
	calls  int64
}

func (c *countingSink) Submit(customer netip.Addr, at time.Time, flows []netflow.Record) error {
	n := len(flows)
	var t time.Time
	if c.timed {
		t = time.Now()
	}
	err := c.eng.Submit(customer, at, flows)
	if c.timed {
		c.waitNs += int64(time.Since(t))
		c.calls++
	}
	if err != nil {
		c.errs++
		return err
	}
	if slot := c.in.stepIndex(customer, at); slot >= 0 {
		c.counts[slot]++
		c.recs[slot] += int32(n)
	} else {
		c.extra++
	}
	return nil
}

// pipeConn hands every exporter datagram straight into the ingest
// pipeline, like xatu-fleet's in-process conn: no socket, so no loopback
// drops. With timed set it measures how long HandlePacket blocks.
type pipeConn struct {
	connStub
	pipe    *ingest.Pipeline
	timed   bool
	waitNs  int64
	packets int64
}

func (c *pipeConn) Write(p []byte) (int, error) {
	if c.timed {
		t := time.Now()
		c.pipe.HandlePacket("bench", p)
		c.waitNs += int64(time.Since(t))
		c.packets++
	} else {
		c.pipe.HandlePacket("bench", p)
	}
	return len(p), nil
}

// connStub supplies the net.Conn methods besides Write; an exporter
// only writes to its conn and closes it.
type connStub struct{}

func (connStub) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (connStub) Close() error                     { return nil }
func (connStub) LocalAddr() net.Addr              { return benchAddr{} }
func (connStub) RemoteAddr() net.Addr             { return benchAddr{} }
func (connStub) SetDeadline(time.Time) error      { return nil }
func (connStub) SetReadDeadline(time.Time) error  { return nil }
func (connStub) SetWriteDeadline(time.Time) error { return nil }

type benchAddr struct{}

func (benchAddr) Network() string { return "in-process" }
func (benchAddr) String() string  { return "in-process" }

// repetition is what one replay of the inputs through a fresh system
// measured.
type repetition struct {
	probed    bool
	wall      time.Duration // first Export to Drain return
	cpu       time.Duration // process user+sys CPU in the window
	steps     uint64        // engine-processed steps
	records   uint64        // records exported
	attempted int
	failed    int
	alerts    []alertKey
	heapBytes uint64  // live heap at window end
	allocB    uint64  // bytes allocated in the window
	gcCPU     float64 // GC CPU seconds (runtime/metrics estimate)

	stepTotal      time.Duration // engine Stats.StepTotal
	queueHighWater int
	poolHits       uint64
	poolMisses     uint64
	pairsEnd       int
	handoffWaitNs  int64
	packets        int64
	submitWaitNs   int64
	submits        int64
	problems       []string
}

// replay runs the inputs once through sys, closes it, and accounts for
// every step.
func (s *sut) replay(sys *system) (*repetition, error) {
	rep := &repetition{probed: sys.sink.timed}
	m0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	for i := range s.in.recs {
		if err := sys.exp.Export(s.in.recs[i]); err != nil {
			sys.close()
			return nil, fmt.Errorf("export: %w", err)
		}
	}
	if err := sys.exp.Flush(); err != nil {
		sys.close()
		return nil, fmt.Errorf("flush: %w", err)
	}
	if err := sys.pipe.Close(); err != nil {
		sys.close()
		return nil, fmt.Errorf("pipeline close: %w", err)
	}
	if err := sys.eng.Drain(); err != nil {
		sys.close()
		return nil, fmt.Errorf("drain: %w", err)
	}
	rep.wall = time.Since(start)
	rep.cpu = processCPU() - cpu0
	m1 := readRuntime()
	rep.allocB = m1.allocBytes - m0.allocBytes
	rep.gcCPU = m1.gcCPU - m0.gcCPU
	rep.heapBytes = liveHeap()

	es := sys.eng.Stats()
	ps := sys.pipe.Stats()
	xs := sys.exp.Stats()
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("closing the system: %w", err)
	}

	rep.steps = es.Steps
	rep.records = xs.Sent
	rep.alerts = sys.alerts
	rep.stepTotal = es.StepTotal
	rep.queueHighWater = es.QueueHighWater
	rep.poolHits, rep.poolMisses = ps.PoolHits+ps.AggPoolHits, ps.PoolMisses+ps.AggPoolMisses
	rep.handoffWaitNs, rep.packets = sys.conn.waitNs, sys.conn.packets
	rep.submitWaitNs, rep.submits = sys.sink.waitNs, sys.sink.calls

	acc := accountSteps(s.in.expected, sys.sink.counts, sys.sink.recs, sys.sink.extra, uint64(sys.sink.countOK()), es.Steps)
	rep.attempted, rep.failed = acc.attempted, acc.failed
	if acc.failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf(
			"%d of %d replay steps not processed exactly once (%d missing or duplicated, %d with lost records, %d unexpected, %d submitted but unprocessed)",
			acc.failed, acc.attempted, acc.wrongCount, acc.wrongRecords, acc.unexpected, acc.unprocessed))
	}
	if xs.Sent != uint64(len(s.in.recs)) || xs.Shed != 0 || xs.WriteErrors != 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("exporter sent %d of %d records (shed %d, write errors %d)",
			xs.Sent, len(s.in.recs), xs.Shed, xs.WriteErrors))
	}
	if ps.BadPackets+ps.DupPackets+ps.LostRecords+ps.DroppedLate != 0 || sys.sink.errs != 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("ingest: %d bad packets, %d duplicates, %d lost records, %d late-dropped, %d submit errors",
			ps.BadPackets, ps.DupPackets, ps.LostRecords, ps.DroppedLate, sys.sink.errs))
	}
	if es.Shed+es.Lost+es.Bypassed+es.Quarantined != 0 || es.Health != engine.Healthy {
		rep.problems = append(rep.problems, fmt.Sprintf("engine: shed %d, lost %d, bypassed %d, quarantined %d, health %v",
			es.Shed, es.Lost, es.Bypassed, es.Quarantined, es.Health))
	}
	return rep, nil
}

func (c *countingSink) countOK() int {
	n := c.extra
	for _, v := range c.counts {
		n += int(v)
	}
	return n
}

// runtimeSample is a runtime/metrics reading.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var r runtimeSample
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		r.allocBytes = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindFloat64 {
		r.gcCPU = v.Float64()
	}
	return r
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Unreachable for RUSAGE_SELF on Linux; a zero reading would
		// silently zero the CPU metrics, so treat it as a defect.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
