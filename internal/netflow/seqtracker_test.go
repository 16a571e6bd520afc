package netflow

import (
	"net/netip"
	"testing"
	"time"
)

// mkTestPacket encodes nrecs records destined to distinct customers into
// one v5 datagram with the given flow sequence.
func mkTestPacket(t testing.TB, nrecs int, seq uint32) []byte {
	t.Helper()
	boot := time.Date(2019, 4, 24, 0, 0, 0, 0, time.UTC)
	now := boot.Add(time.Hour)
	recs := make([]Record, nrecs)
	for i := range recs {
		recs[i] = Record{
			Src:     netip.AddrFrom4([4]byte{11, 0, byte(i >> 8), byte(i)}),
			Dst:     netip.AddrFrom4([4]byte{23, 0, 0, byte(i%8 + 1)}),
			SrcPort: 53, DstPort: 4444, Proto: ProtoUDP,
			Packets: 10, Bytes: 640,
			Start: boot.Add(30 * time.Minute), End: boot.Add(31 * time.Minute),
		}
	}
	pkt, err := EncodeV5(recs, boot, now, seq, 100)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestSeqTrackerTrackAllocFree is the regression pin for the per-datagram
// source-key and decode allocations: after warm-up, decoding into reused
// scratch and tracking the datagram's sequence allocates nothing — no
// formatted (source, engine) key, no fresh record slice.
func TestSeqTrackerTrackAllocFree(t *testing.T) {
	tr := NewSeqTracker()
	pkt := mkTestPacket(t, 10, 0)
	scratch := make([]Record, 0, MaxRecordsPerPacket)
	seq := uint32(0)
	feed := func() {
		// Rewrite the flow sequence in place so tracking stays in order.
		pkt[16], pkt[17], pkt[18], pkt[19] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		h, recs, err := DecodeV5Into(pkt, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if tr.Track("198.51.100.9:2055", h, len(recs)) {
			t.Fatal("in-order datagram tracked as a duplicate")
		}
		seq += 10
	}
	for i := 0; i < 8; i++ {
		feed()
	}
	if allocs := testing.AllocsPerRun(100, feed); allocs != 0 {
		t.Fatalf("DecodeV5Into+Track allocs/op = %v, want 0", allocs)
	}
	if dup, reo, lost := tr.Counters(); dup != 0 || reo != 0 || lost != 0 || tr.Exporters() != 1 {
		t.Fatalf("in-order stream: dup=%d reordered=%d lost=%d exporters=%d", dup, reo, lost, tr.Exporters())
	}
}
