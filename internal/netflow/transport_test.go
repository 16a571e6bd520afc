package netflow

import (
	"math/rand"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"
)

// udpReceiver is a bare NetFlow v5 receiver for exporter tests: it decodes
// every datagram arriving on a loopback socket and hands the records out
// on a channel, counting datagrams that fail to decode.
type udpReceiver struct {
	pc      net.PacketConn
	records chan Record
	bad     atomic.Uint64
}

func newUDPReceiver(t *testing.T) *udpReceiver {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &udpReceiver{pc: pc, records: make(chan Record, 1024)}
	t.Cleanup(func() { pc.Close() })
	go func() {
		defer close(r.records)
		buf := make([]byte, 65535)
		for {
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			_, recs, err := DecodeV5(buf[:n])
			if err != nil {
				r.bad.Add(1)
				continue
			}
			for _, rec := range recs {
				r.records <- rec
			}
		}
	}()
	return r
}

func (r *udpReceiver) addr() string { return r.pc.LocalAddr().String() }

// next waits for the next decoded record.
func (r *udpReceiver) next(t *testing.T, received int) Record {
	t.Helper()
	select {
	case rec, ok := <-r.records:
		if !ok {
			t.Fatalf("receiver closed early after %d records", received)
		}
		return rec
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out after %d records", received)
	}
	return Record{}
}

func TestExporterCollectorEndToEnd(t *testing.T) {
	rx := newUDPReceiver(t)
	exp, err := NewExporter(rx.addr(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	const total = 95 // forces 3 full packets + 1 partial flush
	start := time.Now().Add(-30 * time.Second)
	for i := 0; i < total; i++ {
		r := Record{
			Src:     netip.AddrFrom4([4]byte{11, 0, byte(i / 250), byte(i%250 + 1)}),
			Dst:     netip.MustParseAddr("23.1.1.1"),
			SrcPort: uint16(1000 + i),
			DstPort: 53,
			Proto:   ProtoUDP,
			Packets: uint32(i + 1),
			Bytes:   uint32((i + 1) * 64),
			Start:   start,
			End:     start.Add(time.Second),
		}
		if err := exp.Export(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if exp.Sent() != total {
		t.Fatalf("Sent = %d, want %d", exp.Sent(), total)
	}
	for received := 0; received < total; received++ {
		if r := rx.next(t, received); r.Proto != ProtoUDP || r.DstPort != 53 {
			t.Fatalf("corrupted record: %+v", r)
		}
	}
	if bad := rx.bad.Load(); bad != 0 {
		t.Fatalf("bad=%d", bad)
	}
}

// TestExporterRecordClockRoundTrip pins the BootTime (record-clock) mode:
// simulated flow timestamps far in the past must survive the encode/decode
// round trip to millisecond precision instead of being clamped into the
// exporter's wall-clock epoch. Event-time consumers (the ingest pipeline's
// aggregation workers) seal steps by these timestamps, so clamping would
// collapse a replayed window into a single bucket.
func TestExporterRecordClockRoundTrip(t *testing.T) {
	rx := newUDPReceiver(t)
	base := time.Date(2019, 7, 3, 12, 0, 0, 0, time.UTC) // nowhere near time.Now()
	exp, err := NewExporterWithConfig(ExporterConfig{
		Addr:     rx.addr(),
		Sampling: 1,
		BootTime: base.Add(-time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	const total = 40 // spans two datagrams
	want := make(map[netip.Addr]Record, total)
	for i := 0; i < total; i++ {
		start := base.Add(time.Duration(i) * time.Minute)
		r := Record{
			Src:     netip.AddrFrom4([4]byte{11, 0, 0, byte(i + 1)}),
			Dst:     netip.MustParseAddr("23.1.1.1"),
			SrcPort: uint16(1000 + i), DstPort: 53, Proto: ProtoUDP,
			Packets: uint32(i + 1), Bytes: uint32((i + 1) * 64),
			Start: start, End: start.Add(30 * time.Second),
		}
		want[r.Src] = r
		if err := exp.Export(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	for received := 0; received < total; received++ {
		got := rx.next(t, received)
		w := want[got.Src]
		if !got.Start.Equal(w.Start) || !got.End.Equal(w.End) {
			t.Fatalf("record %v timestamps clamped: got [%v, %v], want [%v, %v]",
				got.Src, got.Start, got.End, w.Start, w.End)
		}
	}
}

func TestSamplerPassThrough(t *testing.T) {
	s := NewSampler(1, rand.New(rand.NewSource(1)))
	r := Record{Packets: 10, Bytes: 1000}
	got, ok := s.Sample(r)
	if !ok || got.Packets != 10 || got.Bytes != 1000 {
		t.Fatalf("1:1 sampling must pass through, got %+v ok=%v", got, ok)
	}
	if NewSampler(0, nil).N != 1 {
		t.Fatal("n<1 must clamp to 1")
	}
}

func TestSamplerUnbiasedInExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := NewSampler(100, rng)
	const trials = 3000
	r := Record{Packets: 500, Bytes: 500 * 64}
	var sumPkts, sumBytes float64
	for i := 0; i < trials; i++ {
		got, ok := s.Sample(r)
		if ok {
			sumPkts += float64(got.Packets)
			sumBytes += float64(got.Bytes)
		}
	}
	meanPkts := sumPkts / trials
	meanBytes := sumBytes / trials
	// Expectation equals the original value; allow 10% statistical slack.
	if meanPkts < 450 || meanPkts > 550 {
		t.Fatalf("mean packets %v, want ≈500", meanPkts)
	}
	if meanBytes < 0.9*500*64 || meanBytes > 1.1*500*64 {
		t.Fatalf("mean bytes %v, want ≈%v", meanBytes, 500*64)
	}
}

func TestSamplerLargeFlowApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := NewSampler(1000, rng)
	r := Record{Packets: 1_000_000, Bytes: 64_000_000}
	var sum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		got, ok := s.Sample(r)
		if !ok {
			t.Fatal("million-packet flow should essentially always survive 1:1000 sampling")
		}
		sum += float64(got.Packets)
	}
	mean := sum / trials
	if mean < 0.95e6 || mean > 1.05e6 {
		t.Fatalf("mean %v, want ≈1e6", mean)
	}
}

func TestSamplerDropsSmallFlowsSometimes(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	s := NewSampler(1000, rng)
	r := Record{Packets: 2, Bytes: 128}
	dropped := 0
	for i := 0; i < 500; i++ {
		if _, ok := s.Sample(r); !ok {
			dropped++
		}
	}
	if dropped < 400 {
		t.Fatalf("2-packet flow under 1:1000 sampling should almost always vanish, dropped %d/500", dropped)
	}
}
