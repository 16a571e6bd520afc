package ingest

import (
	"github.com/xatu-go/xatu/internal/telemetry"
)

// registerMetrics exposes the pipeline on reg as the xatu_ingest_*
// families. All readers sample the same atomics Stats sums, so scrapes
// never touch a worker's hot path; reg may be nil (no instrumentation,
// and the decode-latency clock reads are skipped entirely).
func (p *Pipeline) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.decodeHist = reg.Histogram("xatu_ingest_decode_seconds",
		"Per-datagram decode + routing latency in a decode worker.")
	counter := func(get func(Stats) uint64) func() float64 {
		return func() float64 { return float64(get(p.Stats())) }
	}
	reg.CounterFunc("xatu_ingest_packets_total",
		"Well-formed NetFlow v5 datagrams decoded.",
		counter(func(s Stats) uint64 { return s.Packets }))
	reg.CounterFunc("xatu_ingest_bad_packets_total",
		"Datagrams that failed to decode.",
		counter(func(s Stats) uint64 { return s.BadPackets }))
	reg.CounterFunc("xatu_ingest_records_total",
		"Flow records decoded and routed to aggregation workers.",
		counter(func(s Stats) uint64 { return s.Records }))
	reg.CounterFunc("xatu_ingest_dup_packets_total",
		"Duplicate datagrams discarded by sequence tracking.",
		counter(func(s Stats) uint64 { return s.DupPackets }))
	reg.CounterFunc("xatu_ingest_reordered_packets_total",
		"Late datagrams delivered out of order.",
		counter(func(s Stats) uint64 { return s.ReorderedPackets }))
	reg.GaugeFunc("xatu_ingest_lost_records",
		"Records missing per v5 sequence accounting (refunded on late arrival).",
		counter(func(s Stats) uint64 { return s.LostRecords }))
	reg.GaugeFunc("xatu_ingest_exporters",
		"Distinct (source, engine) NetFlow export streams observed.",
		counter(func(s Stats) uint64 { return s.Exporters }))
	reg.CounterFunc("xatu_ingest_steps_total",
		"(customer, step) buckets sealed and delivered to the sink.",
		counter(func(s Stats) uint64 { return s.Steps }))
	reg.CounterFunc("xatu_ingest_dropped_late_records_total",
		"Records dropped for arriving past the lateness allowance.",
		counter(func(s Stats) uint64 { return s.DroppedLate }))
	reg.CounterFunc("xatu_ingest_pool_hits_total",
		"Packet-buffer and record-chunk free-list hits.",
		counter(func(s Stats) uint64 { return s.PoolHits }))
	reg.CounterFunc("xatu_ingest_pool_misses_total",
		"Packet-buffer and record-chunk free-list misses (allocations).",
		counter(func(s Stats) uint64 { return s.PoolMisses }))
	reg.CounterFunc("xatu_ingest_agg_pool_hits_total",
		"Aggregator sealed-storage free-list hits, summed across workers.",
		counter(func(s Stats) uint64 { return s.AggPoolHits }))
	reg.CounterFunc("xatu_ingest_agg_pool_misses_total",
		"Aggregator sealed-storage free-list misses, summed across workers.",
		counter(func(s Stats) uint64 { return s.AggPoolMisses }))
	reg.GaugeFunc("xatu_ingest_decode_queue_depth",
		"Packets buffered across decode-worker inboxes (fan-out depth).",
		func() float64 {
			var n int
			for _, ch := range p.decodeIn {
				n += len(ch)
			}
			return float64(n)
		})
	reg.GaugeFunc("xatu_ingest_agg_queue_depth",
		"Record chunks buffered across aggregation-worker inboxes.",
		func() float64 {
			var n int
			for _, ch := range p.aggIn {
				n += len(ch)
			}
			return float64(n)
		})
	reg.GaugeFunc("xatu_ingest_workers",
		"Workers running, by pipeline stage.",
		func() float64 { return float64(len(p.decode)) },
		telemetry.Label{Name: "stage", Value: "decode"})
	reg.GaugeFunc("xatu_ingest_workers",
		"Workers running, by pipeline stage.",
		func() float64 { return float64(len(p.agg)) },
		telemetry.Label{Name: "stage", Value: "aggregate"})
}
