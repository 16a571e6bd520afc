package netflow_test

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
)

// These tests drive the exporter and chaos transport into the NetFlow
// consumer the detector actually runs, the ingest pipeline, so the
// injected faults are reconciled against its loss accounting.

func chaosRecord(i int) netflow.Record {
	start := time.Date(2019, 4, 24, 0, 0, 0, 0, time.UTC)
	return netflow.Record{
		Src:     netip.AddrFrom4([4]byte{11, 0, byte(i >> 8), byte(i&0xFF | 1)}),
		Dst:     netip.MustParseAddr("23.1.1.1"),
		SrcPort: uint16(1000 + i), DstPort: 53, Proto: netflow.ProtoUDP,
		Packets: uint32(i + 1), Bytes: uint32((i + 1) * 64),
		Start: start, End: start.Add(time.Second),
	}
}

// stepCollector is an ingest.Pipeline sink that keeps every record of
// every sealed step.
type stepCollector struct {
	mu   sync.Mutex
	recs []netflow.Record
}

func (c *stepCollector) onStep(_ netip.Addr, _ time.Time, _ []float64, flows []netflow.Record) {
	c.mu.Lock()
	c.recs = append(c.recs, flows...)
	c.mu.Unlock()
}

func newPipeline(t *testing.T) (*ingest.Pipeline, *stepCollector) {
	t.Helper()
	sink := &stepCollector{}
	p, err := ingest.New(ingest.Config{
		DecodeWorkers: 1, AggWorkers: 1, Step: time.Minute, Lateness: time.Hour,
		OnStep: sink.onStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, sink
}

func TestChaosPipeCollectorSeparatesLossClasses(t *testing.T) {
	pipe, sink := newPipeline(t)
	chaos := netflow.NewChaosPipe(pipe, "exporter-1", netflow.ChaosConfig{
		Seed: 42, DropRate: 0.10, DupRate: 0.05, ReorderRate: 0.05,
	})
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Sampling: 1,
		Dial:     func() (net.Conn, error) { return chaos, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 3000
	for i := 0; i < total; i++ {
		if err := exp.Export(chaosRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := exp.Sent(); got != total {
		t.Fatalf("Sent = %d, want %d", got, total)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	cs := chaos.Stats()
	st := pipe.Stats()
	if cs.Dropped == 0 || cs.Duplicated == 0 || cs.Reordered == 0 {
		t.Fatalf("chaos did not exercise all faults: %+v", cs)
	}
	// Duplicate datagrams are delivered immediately after their original,
	// so every one must be caught by the recently-seen ring.
	if st.DupPackets != cs.Duplicated {
		t.Fatalf("DupPackets = %d, chaos duplicated %d", st.DupPackets, cs.Duplicated)
	}
	// Reordered datagrams are delivered one write late and show up as
	// out-of-order arrivals — unless the intervening write was itself
	// dropped, in which case they arrive effectively in order. So the
	// pipeline sees at most (and usually about) as many as were injected.
	if st.ReorderedPackets == 0 || st.ReorderedPackets > cs.Reordered {
		t.Fatalf("ReorderedPackets = %d, chaos reordered %d", st.ReorderedPackets, cs.Reordered)
	}
	if st.LostRecords == 0 {
		t.Fatal("10% datagram loss must surface as sequence-gap records")
	}
	// Conservation: every exported record is either delivered or charged
	// as lost, modulo a trailing dropped datagram no later packet reveals.
	delivered := uint64(len(sink.recs))
	if delivered != st.Records || st.DroppedLate != 0 {
		t.Fatalf("sink received %d, stats say %d decoded (%d dropped late)", delivered, st.Records, st.DroppedLate)
	}
	if got := delivered + st.LostRecords; got > total || got < total-netflow.MaxRecordsPerPacket {
		t.Fatalf("delivered(%d) + lost(%d) = %d, want within one datagram of %d",
			delivered, st.LostRecords, got, total)
	}
	if st.Exporters != 1 {
		t.Fatalf("Exporters = %d, want 1", st.Exporters)
	}
}

// serve runs the pipeline's UDP read loop on a loopback socket and
// returns the socket address and a stop function that ends Serve and
// closes the pipeline, flushing every open step.
func serve(t *testing.T, pipe *ingest.Pipeline) (addr string, stop func()) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- pipe.Serve(ctx, pc) }()
	return pc.LocalAddr().String(), func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := pipe.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestChaosConnOverRealUDP(t *testing.T) {
	// The same chaos schedule over a real kernel socket: content is
	// deterministic, timing is not, so assertions are structural.
	pipe, _ := newPipeline(t)
	addr, stop := serve(t, pipe)
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Sampling: 1,
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("udp", addr)
			if err != nil {
				return nil, err
			}
			return netflow.NewChaosConn(conn, netflow.ChaosConfig{Seed: 99, DropRate: 0.1, DupRate: 0.05}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1500
	for i := 0; i < total; i++ {
		if err := exp.Export(chaosRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until the decoded count stabilizes.
	last, idle := pipe.Stats(), 0
	for idle < 20 {
		time.Sleep(10 * time.Millisecond)
		if st := pipe.Stats(); st.Packets+st.DupPackets != last.Packets+last.DupPackets {
			last, idle = st, 0
		} else {
			idle++
		}
	}
	exp.Close()
	stop()
	st := pipe.Stats()
	received := st.Records
	if received == 0 || st.LostRecords == 0 {
		t.Fatalf("received=%d stats=%+v: expected both delivery and loss", received, st)
	}
	if st.DupPackets == 0 {
		t.Fatalf("5%% duplication over %d datagrams must surface: %+v", total/netflow.MaxRecordsPerPacket, st)
	}
	if got := received + st.LostRecords; got > total || got+netflow.MaxRecordsPerPacket < total {
		t.Fatalf("received(%d) + lost(%d) not within one datagram of %d", received, st.LostRecords, total)
	}
}

func TestCollectorIgnoresGarbageDatagrams(t *testing.T) {
	pipe, sink := newPipeline(t)
	addr, stop := serve(t, pipe)
	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("this is not netflow")); err != nil {
		t.Fatal(err)
	}
	// Then a valid record; it must still arrive.
	exp, err := netflow.NewExporter(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	r := netflow.Record{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: netip.MustParseAddr("23.1.1.1"),
		Proto: netflow.ProtoICMP, Packets: 1, Bytes: 64,
		Start: time.Now().Add(-time.Second), End: time.Now(),
	}
	if err := exp.Export(r); err != nil {
		t.Fatal(err)
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := pipe.Stats(); st.Packets < 1 || st.BadPackets < 1; st = pipe.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("garbage and valid datagram never both arrived: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	if bad := pipe.Stats().BadPackets; bad != 1 {
		t.Fatalf("bad packet counter = %d, want 1", bad)
	}
	if len(sink.recs) != 1 || sink.recs[0].Proto != netflow.ProtoICMP {
		t.Fatalf("valid record not delivered intact: %+v", sink.recs)
	}
}
