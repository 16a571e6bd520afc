// Package netflow implements the traffic-feed substrate Xatu consumes: a
// flow-record model, a NetFlow v5 wire codec, a fault-tolerant UDP exporter
// with per-exporter sequence accounting for its consumers (so the §2.6
// deployment loop can run over a real socket), and 1:N packet
// sampling mirroring the ISP's sampled NetFlow (§2.2, sampling rates 1:1 to
// 1:10000).
package netflow

import (
	"fmt"
	"net/netip"
	"slices"
	"time"
)

// Proto is an IP protocol number. Only the three protocols the paper's
// volumetric features disaggregate are named; others pass through.
type Proto uint8

// Protocol numbers used throughout the repo.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns the protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

// TCP flag bits as they appear in the NetFlow tcp_flags field.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Record is one unidirectional flow record, the unit every other package
// consumes. Timestamps use wall-clock time; the v5 codec converts to/from
// router uptime internally.
type Record struct {
	Src      netip.Addr
	Dst      netip.Addr
	SrcPort  uint16
	DstPort  uint16
	Proto    Proto
	TCPFlags uint8
	Packets  uint32
	Bytes    uint32
	Start    time.Time
	End      time.Time
	SrcAS    uint16 // ingress AS, feeds the spoof origin check
	DstAS    uint16
}

// Validate performs sanity checks used by decoders and generators.
func (r *Record) Validate() error {
	if !r.Src.IsValid() || !r.Dst.IsValid() {
		return fmt.Errorf("netflow: invalid address in record")
	}
	if !r.Src.Unmap().Is4() || !r.Dst.Unmap().Is4() {
		return fmt.Errorf("netflow: only IPv4 flows supported")
	}
	if r.Packets == 0 {
		return fmt.Errorf("netflow: record with zero packets")
	}
	if r.End.Before(r.Start) {
		return fmt.Errorf("netflow: flow ends before it starts")
	}
	return nil
}

// CompareRecords is a total order over all record fields (timestamps
// first, then the flow 5-tuple, then counters): the canonical in-bucket
// order the ingest pipeline sorts by before feature extraction, so float
// accumulation order — and therefore the extracted vectors, bit for bit —
// does not depend on how records interleaved across workers.
func CompareRecords(a, b Record) int {
	if c := a.Start.Compare(b.Start); c != 0 {
		return c
	}
	if c := a.End.Compare(b.End); c != 0 {
		return c
	}
	if c := a.Src.Compare(b.Src); c != 0 {
		return c
	}
	if c := a.Dst.Compare(b.Dst); c != 0 {
		return c
	}
	if c := cmpU64(uint64(a.SrcPort), uint64(b.SrcPort)); c != 0 {
		return c
	}
	if c := cmpU64(uint64(a.DstPort), uint64(b.DstPort)); c != 0 {
		return c
	}
	if c := cmpU64(uint64(a.Proto), uint64(b.Proto)); c != 0 {
		return c
	}
	if c := cmpU64(uint64(a.TCPFlags), uint64(b.TCPFlags)); c != 0 {
		return c
	}
	if c := cmpU64(uint64(a.Packets), uint64(b.Packets)); c != 0 {
		return c
	}
	if c := cmpU64(uint64(a.Bytes), uint64(b.Bytes)); c != 0 {
		return c
	}
	if c := cmpU64(uint64(a.SrcAS), uint64(b.SrcAS)); c != 0 {
		return c
	}
	return cmpU64(uint64(a.DstAS), uint64(b.DstAS))
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// SortRecordsCanonical sorts recs by CompareRecords in place without
// allocating.
func SortRecordsCanonical(recs []Record) {
	slices.SortFunc(recs, CompareRecords)
}
