package netflow

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// captureSink records every delivered datagram.
type captureSink struct {
	mu   sync.Mutex
	pkts [][]byte
}

func (s *captureSink) HandlePacket(src string, pkt []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkts = append(s.pkts, append([]byte(nil), pkt...))
}

func (s *captureSink) snapshot() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.pkts...)
}

func testRecord(i int) Record {
	start := time.Date(2019, 4, 24, 0, 0, 0, 0, time.UTC)
	return Record{
		Src:     netip.AddrFrom4([4]byte{11, 0, byte(i >> 8), byte(i&0xFF | 1)}),
		Dst:     netip.MustParseAddr("23.1.1.1"),
		SrcPort: uint16(1000 + i), DstPort: 53, Proto: ProtoUDP,
		Packets: uint32(i + 1), Bytes: uint32((i + 1) * 64),
		Start: start, End: start.Add(time.Second),
	}
}

func TestChaosConnDeterministicSchedule(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, DropRate: 0.2, DupRate: 0.1, ReorderRate: 0.1, CorruptRate: 0.05}
	run := func() ([][]byte, ChaosStats) {
		sink := &captureSink{}
		conn := NewChaosPipe(sink, "exp", cfg)
		pkt := make([]byte, 64)
		for i := 0; i < 500; i++ {
			pkt[0] = byte(i)
			pkt[1] = byte(i >> 8)
			if _, err := conn.Write(pkt); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		return sink.snapshot(), conn.Stats()
	}
	pktsA, statsA := run()
	pktsB, statsB := run()
	if statsA != statsB {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", statsA, statsB)
	}
	if len(pktsA) != len(pktsB) {
		t.Fatalf("delivery count differs: %d vs %d", len(pktsA), len(pktsB))
	}
	for i := range pktsA {
		if !bytes.Equal(pktsA[i], pktsB[i]) {
			t.Fatalf("packet %d differs across identical runs", i)
		}
	}
	if statsA.Dropped == 0 || statsA.Duplicated == 0 || statsA.Reordered == 0 || statsA.Corrupted == 0 {
		t.Fatalf("expected every fault type to fire over 500 writes: %+v", statsA)
	}
	want := statsA.Written - statsA.Dropped + statsA.Duplicated
	if uint64(len(pktsA)) != want {
		t.Fatalf("delivered %d packets, accounting says %d", len(pktsA), want)
	}
}

func TestChaosConnIndependentFaultStreams(t *testing.T) {
	// The drop schedule at a seed must not shift when duplication is
	// enabled alongside it.
	dropsAt := func(cfg ChaosConfig) []int {
		sink := &captureSink{}
		conn := NewChaosPipe(sink, "exp", cfg)
		var drops []int
		for i := 0; i < 200; i++ {
			before := conn.Stats().Dropped
			if _, err := conn.Write([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if conn.Stats().Dropped > before {
				drops = append(drops, i)
			}
		}
		return drops
	}
	a := dropsAt(ChaosConfig{Seed: 3, DropRate: 0.15})
	b := dropsAt(ChaosConfig{Seed: 3, DropRate: 0.15, DupRate: 0.3, CorruptRate: 0.2})
	if len(a) == 0 {
		t.Fatal("no drops at 15% over 200 writes")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("drop schedule shifted when other faults enabled:\n%v\n%v", a, b)
	}
}

func TestExporterReconnectsAfterWriteFailure(t *testing.T) {
	sink := &captureSink{}
	// Fail roughly half the writes: the exporter must keep records
	// pending across failures, redial, and eventually deliver everything
	// (chaos write failures are pre-send, so no datagrams are lost).
	var dials int
	exp, err := NewExporterWithConfig(ExporterConfig{
		Sampling:    1,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  10 * time.Microsecond,
		Dial: func() (net.Conn, error) {
			dials++
			return NewChaosPipe(sink, "exporter-1", ChaosConfig{Seed: int64(dials), FailRate: 0.5}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 2000
	for i := 0; i < total; i++ {
		if err := exp.Export(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for exp.Sent() < total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d sent: %+v", exp.Sent(), total, exp.Stats())
		}
		if err := exp.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	es := exp.Stats()
	if es.WriteErrors == 0 || es.Reconnects == 0 {
		t.Fatalf("expected write errors and reconnects: %+v", es)
	}
	records, dup, lost := trackAll(t, sink.snapshot())
	// Each reconnect restarts the chaos conn but the v5 sequence keeps
	// counting, so the consumer must see a contiguous stream: no loss.
	if lost != 0 || dup != 0 {
		t.Fatalf("pre-send failures must not lose or duplicate records: lost=%d dup=%d", lost, dup)
	}
	if records != total {
		t.Fatalf("Records = %d, want %d", records, total)
	}
}

// trackAll decodes captured datagrams from one exporter through a
// SeqTracker, the way an ingest decode worker does, and returns the
// delivered record count with the duplicate and loss totals.
func trackAll(t *testing.T, pkts [][]byte) (records int, dup, lost uint64) {
	t.Helper()
	tr := NewSeqTracker()
	for _, pkt := range pkts {
		h, recs, err := DecodeV5(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Track("exporter-1", h, len(recs)) {
			records += len(recs)
		}
	}
	dup, _, lost = tr.Counters()
	return records, dup, lost
}

func TestExporterShedsWhenCollectorDead(t *testing.T) {
	dead := &deadConn{}
	exp, err := NewExporterWithConfig(ExporterConfig{
		Sampling:    1,
		MaxPending:  100,
		BaseBackoff: time.Hour, // stay down for the whole test
		MaxBackoff:  time.Hour,
		Dial:        func() (net.Conn, error) { return dead, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := exp.Export(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := exp.Stats()
	if st.Pending > 100 {
		t.Fatalf("pending %d exceeds MaxPending 100", st.Pending)
	}
	if st.Shed == 0 {
		t.Fatalf("a dead collector must shed, not grow without bound: %+v", st)
	}
	if st.Sent != 0 {
		t.Fatalf("nothing can have been sent: %+v", st)
	}
	if st.Shed+uint64(st.Pending) != 1000 {
		t.Fatalf("shed %d + pending %d != 1000", st.Shed, st.Pending)
	}
}

// deadConn fails every write, simulating an unreachable collector.
type deadConn struct{}

func (deadConn) Write([]byte) (int, error)        { return 0, errors.New("host unreachable") }
func (deadConn) Read([]byte) (int, error)         { return 0, errors.New("host unreachable") }
func (deadConn) Close() error                     { return nil }
func (deadConn) LocalAddr() net.Addr              { return sinkAddr{name: "dead"} }
func (deadConn) RemoteAddr() net.Addr             { return sinkAddr{name: "dead"} }
func (deadConn) SetDeadline(time.Time) error      { return nil }
func (deadConn) SetReadDeadline(time.Time) error  { return nil }
func (deadConn) SetWriteDeadline(time.Time) error { return nil }

func TestExporterCloseIdempotent(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	exp, err := NewExporter(pc.LocalAddr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Export(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("second close must be a no-op, got %v", err)
	}
	if err := exp.Export(testRecord(2)); !errors.Is(err, ErrExporterClosed) {
		t.Fatalf("Export after close = %v, want ErrExporterClosed", err)
	}
	if err := exp.Flush(); !errors.Is(err, ErrExporterClosed) {
		t.Fatalf("Flush after close = %v, want ErrExporterClosed", err)
	}
}
