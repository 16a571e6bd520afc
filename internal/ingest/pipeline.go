// Package ingest is Xatu's parallel, allocation-lean ingest pipeline: raw
// NetFlow v5 datagrams in, per-customer step batches (and optionally
// feature vectors) out.
//
//	packet ──hash(src)──▶ decode worker ──hash(dst)──▶ agg worker ──▶ sink
//	          (× M: DecodeV5Into + seq tracking)   (× N: Aggregator + ExtractInto)
//
// Two partitioning hashes carry the ordering guarantees end to end:
// packets are routed to decode workers by a stable hash of their source,
// so each exporter's datagrams stay in order and sequence accounting
// (duplicate/reorder/loss) runs lock-free on one goroutine; decoded
// records are routed to aggregation workers by engine.ShardOf of their
// destination, so each protected customer's steps are built, sealed, and
// emitted by exactly one goroutine, in step order — the same per-customer
// serialization the engine's shards rely on.
//
// The steady state allocates nothing: packet buffers, record chunks, and
// sealed-batch storage all cycle through free-lists, and feature vectors
// are extracted into per-worker reused buffers. Records within a sealed
// (customer, step) bucket are canonically sorted before extraction, so the
// emitted feature-vector sequence is bit-identical regardless of worker
// count (float accumulation order is fixed even though chunk interleaving
// across workers is not).
package ingest

import (
	"errors"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/telemetry"
	"github.com/xatu-go/xatu/internal/trace"
)

// StepFunc consumes one sealed (customer, step) bucket. feat is the
// extracted 273-vector when the pipeline has an Extractor, nil otherwise.
// feat and flows are valid only for the duration of the call — their
// storage is recycled afterwards — so a retaining sink must copy.
type StepFunc func(customer netip.Addr, at time.Time, feat []float64, flows []netflow.Record)

// Submitter is the engine-shaped step sink: one sealed (customer, step)
// bucket per call, with ownership of the record slice transferring to the
// callee (the pipeline recycles only the batch shell). *engine.Engine
// satisfies it; cluster nodes implement it to route steps by ownership
// table before they reach a local engine.
type Submitter interface {
	Submit(customer netip.Addr, at time.Time, flows []netflow.Record) error
}

// Config assembles a Pipeline. Exactly one sink must be set: OnStep
// (optionally with an Extractor), Engine, or Sink (both of which extract
// downstream).
type Config struct {
	// DecodeWorkers is the number of decode goroutines (M). Zero =
	// GOMAXPROCS.
	DecodeWorkers int
	// AggWorkers is the number of aggregation goroutines (N). Zero =
	// GOMAXPROCS.
	AggWorkers int
	// Step and Lateness configure each worker's netflow.Aggregator. Step
	// zero = one minute.
	Step     time.Duration
	Lateness time.Duration
	// QueueDepth is each worker channel's capacity. Zero = 64. A full
	// queue blocks the producer (backpressure), never sheds.
	QueueDepth int
	// Extractor, when set with OnStep, extracts the feature vector passed
	// to the sink. Must be nil when Engine is set (its monitors extract).
	Extractor *features.Extractor
	// OnStep receives sealed steps. See StepFunc for ownership rules.
	OnStep StepFunc
	// Engine receives sealed steps via Submit. Record slices are handed
	// off to the engine's mailboxes per its contract.
	Engine *engine.Engine
	// Sink receives sealed steps via Submit under the same ownership
	// handoff as Engine, through the Submitter interface instead of a
	// concrete engine.
	Sink Submitter
	// Telemetry, when non-nil, registers the xatu_ingest_* metric
	// families. Nil disables instrumentation at zero hot-path cost.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records flow-trace events for sampled
	// customers: decode workers pick up the export wall clock from the
	// optional frame trailer, and aggregation workers emit the
	// export→decode→seal chain when a sampled customer's step seals.
	// Nil (tracing off) costs one pointer check per packet and per
	// sealed bucket.
	Trace *trace.Recorder
}

// chunkSize is the record-chunk capacity of the decode→aggregate handoff:
// large enough to amortize channel operations, small enough that idle
// flushes keep latency bounded.
const chunkSize = 256

// packet is one raw datagram routed to a decode worker. buf is pooled.
type packet struct {
	src string
	buf []byte
}

// Stats is a point-in-time snapshot of the pipeline's counters, summed
// across workers.
type Stats struct {
	Packets          uint64 // well-formed datagrams decoded
	BadPackets       uint64 // datagrams that failed to decode
	Records          uint64 // records decoded and routed
	DupPackets       uint64 // duplicate datagrams discarded
	ReorderedPackets uint64 // late datagrams delivered out of order
	LostRecords      uint64 // records missing per v5 sequence accounting
	Exporters        uint64 // distinct (source, engine) export streams observed
	Steps            uint64 // (customer, step) buckets emitted
	DroppedLate      uint64 // records dropped past the lateness allowance
	PoolHits         uint64 // packet-buffer and chunk free-list hits
	PoolMisses       uint64 // packet-buffer and chunk free-list misses
	AggPoolHits      uint64 // aggregator sealed-storage free-list hits
	AggPoolMisses    uint64 // aggregator sealed-storage free-list misses
}

// Pipeline is the running worker mesh. It implements netflow.PacketSink,
// so chaos pipes and replay transports can feed it directly; Serve adds a
// UDP read loop for real sockets. HandlePacket may be called from any
// number of goroutines. Close drains everything and flushes pending steps.
type Pipeline struct {
	cfg Config

	decodeIn []chan packet
	aggIn    []chan []netflow.Record
	decode   []*decodeWorker
	agg      []*aggWorker

	// Free-lists (not sync.Pool: returning a slice to a sync.Pool boxes a
	// fresh header per Put, defeating the allocation-free steady state).
	pktMu     sync.Mutex
	pktFree   [][]byte
	chunkMu   sync.Mutex
	chunkFree [][]netflow.Record

	poolHits   atomic.Uint64
	poolMisses atomic.Uint64

	// closeMu serializes HandlePacket against Close: sends hold the read
	// side so Close cannot close a channel mid-send.
	closeMu sync.RWMutex
	closed  bool

	wgDecode sync.WaitGroup
	wgAgg    sync.WaitGroup

	decodeHist *telemetry.Histogram
}

// decodeWorker owns the packets of its hashed sources: decode, sequence
// accounting, and partitioning of records by destination shard.
type decodeWorker struct {
	p       *Pipeline
	in      chan packet
	tracker *netflow.SeqTracker
	pending [][]netflow.Record // per-agg-worker partial chunks
	// 256-way direct-mapped cache of the destination→shard hash, indexed
	// by the destination's low byte: the working set of protected
	// customers is small and the hash is hot enough to show in profiles.
	shardDst [256]netip.Addr
	shardIdx [256]int32

	packets    atomic.Uint64
	badPackets atomic.Uint64
	records    atomic.Uint64
	dup        atomic.Uint64
	reordered  atomic.Uint64
	lost       atomic.Uint64
	exporters  atomic.Uint64
}

// aggWorker owns the customers of its shard: step aggregation, canonical
// in-bucket ordering, feature extraction, and sink delivery.
type aggWorker struct {
	p       *Pipeline
	in      chan []netflow.Record
	agg     *netflow.Aggregator
	featBuf []float64
	scratch features.Scratch

	steps       atomic.Uint64
	droppedLate atomic.Uint64
	poolHits    atomic.Uint64
	poolMisses  atomic.Uint64
}

// New validates cfg, starts the workers, and returns the running pipeline.
func New(cfg Config) (*Pipeline, error) {
	sinks := 0
	for _, set := range []bool{cfg.OnStep != nil, cfg.Engine != nil, cfg.Sink != nil} {
		if set {
			sinks++
		}
	}
	if sinks != 1 {
		return nil, errors.New("ingest: exactly one of OnStep, Engine, and Sink must be set")
	}
	if cfg.OnStep == nil && cfg.Extractor != nil {
		return nil, errors.New("ingest: Extractor must be nil with Engine or Sink (monitors extract internally)")
	}
	if cfg.Engine != nil {
		// One internal path: an Engine is just the concrete Submitter.
		cfg.Sink = cfg.Engine
	}
	if cfg.DecodeWorkers <= 0 {
		cfg.DecodeWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.AggWorkers <= 0 {
		cfg.AggWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	p := &Pipeline{
		cfg:      cfg,
		decodeIn: make([]chan packet, cfg.DecodeWorkers),
		aggIn:    make([]chan []netflow.Record, cfg.AggWorkers),
	}
	for i := range p.aggIn {
		p.aggIn[i] = make(chan []netflow.Record, cfg.QueueDepth)
		w := &aggWorker{p: p, in: p.aggIn[i], agg: netflow.NewAggregator(cfg.Step, cfg.Lateness)}
		p.agg = append(p.agg, w)
		p.wgAgg.Add(1)
		go w.run()
	}
	for i := range p.decodeIn {
		p.decodeIn[i] = make(chan packet, cfg.QueueDepth)
		w := &decodeWorker{
			p:       p,
			in:      p.decodeIn[i],
			tracker: netflow.NewSeqTracker(),
			pending: make([][]netflow.Record, cfg.AggWorkers),
		}
		p.decode = append(p.decode, w)
		p.wgDecode.Add(1)
		go w.run()
	}
	p.registerMetrics(cfg.Telemetry)
	return p, nil
}

// HandlePacket routes one raw datagram from src into the pipeline. The
// packet bytes are copied (the caller may reuse pkt immediately); a full
// decode queue blocks rather than sheds. Packets arriving after Close are
// dropped.
func (p *Pipeline) HandlePacket(src string, pkt []byte) {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return
	}
	buf := p.getPktBuf(len(pkt))
	buf = buf[:len(pkt)]
	copy(buf, pkt)
	p.decodeIn[hashString(src)%uint64(len(p.decodeIn))] <- packet{src: src, buf: buf}
}

// hashString is FNV-1a over a string, allocation-free.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// run is the decode worker loop. The inner select flushes partial
// partition chunks whenever the inbox goes momentarily idle, bounding the
// latency a low-rate destination shard can accumulate behind the
// chunk-fill threshold.
func (w *decodeWorker) run() {
	defer w.p.wgDecode.Done()
	for {
		select {
		case pb, ok := <-w.in:
			if !ok {
				w.flushPending()
				return
			}
			w.handle(pb)
		default:
			w.flushPending()
			pb, ok := <-w.in
			if !ok {
				w.flushPending()
				return
			}
			w.handle(pb)
		}
	}
}

func (w *decodeWorker) handle(pb packet) {
	p := w.p
	var t0 time.Time
	if p.decodeHist != nil {
		t0 = time.Now()
	}
	chunk := p.getChunk()
	h, recs, err := netflow.DecodeV5Into(pb.buf, chunk)
	if err != nil {
		w.badPackets.Add(1)
		p.putChunk(recs)
		p.putPktBuf(pb.buf)
		return
	}
	drop := w.tracker.Track(pb.src, h, len(recs))
	// Single writer: the load is only a cheap change check, so the shared
	// counter is written once per new exporter, not once per packet.
	if n := uint64(w.tracker.Exporters()); n != w.exporters.Load() {
		w.exporters.Store(n)
	}
	dup, reo, lost := w.tracker.Counters()
	w.dup.Store(dup)
	w.reordered.Store(reo)
	w.lost.Store(lost)
	if drop {
		p.putChunk(recs)
		p.putPktBuf(pb.buf)
		return
	}
	w.packets.Add(1)
	w.records.Add(uint64(len(recs)))
	if tr := p.cfg.Trace; tr != nil {
		// Exporters attach the trailer only to datagrams carrying a
		// sampled customer, so the per-record hash loop below runs on
		// traced packets alone; everything else pays the length+magic
		// probe inside ParseTrailerV1.
		if t, ok := netflow.ParseTrailerV1(pb.buf, len(recs)); ok {
			now := time.Now()
			// Records for one customer arrive in runs, and RecordOrigin
			// is latest-wins, so a repeated Dst needs neither the hash
			// nor the recorder lock again.
			var last netip.Addr
			for i := range recs {
				if d := recs[i].Dst; d != last {
					last = d
					if tr.Sampled(d) {
						tr.RecordOrigin(d, t.T0, now)
					}
				}
			}
		}
	}
	n := len(p.aggIn)
	for i := range recs {
		r := &recs[i]
		var shard int
		if r.Dst.Is4() {
			lo := r.Dst.As4()[3]
			if w.shardDst[lo] == r.Dst {
				shard = int(w.shardIdx[lo])
			} else {
				shard = engine.ShardOf(r.Dst, n)
				w.shardDst[lo], w.shardIdx[lo] = r.Dst, int32(shard)
			}
		} else {
			shard = engine.ShardOf(r.Dst, n)
		}
		dst := w.pending[shard]
		if dst == nil {
			dst = p.getChunk()
		}
		dst = append(dst, *r)
		if len(dst) >= chunkSize {
			p.aggIn[shard] <- dst
			dst = nil
		}
		w.pending[shard] = dst
	}
	p.putChunk(recs)
	p.putPktBuf(pb.buf)
	if p.decodeHist != nil {
		p.decodeHist.Observe(time.Since(t0))
	}
}

// flushPending sends every non-empty partial chunk downstream.
func (w *decodeWorker) flushPending() {
	for shard, dst := range w.pending {
		if len(dst) > 0 {
			w.p.aggIn[shard] <- dst
			w.pending[shard] = nil
		}
	}
}

// run is the aggregation worker loop: drain chunks until the channel
// closes, then flush the aggregator's remaining buckets.
func (w *aggWorker) run() {
	defer w.p.wgAgg.Done()
	for chunk := range w.in {
		w.agg.AddBatch(chunk, w.emit)
		w.p.putChunk(chunk)
		w.droppedLate.Store(w.agg.Dropped())
		hits, misses := w.agg.PoolStats()
		w.poolHits.Store(hits)
		w.poolMisses.Store(misses)
	}
	w.emit(w.agg.Flush())
	w.droppedLate.Store(w.agg.Dropped())
	hits, misses := w.agg.PoolStats()
	w.poolHits.Store(hits)
	w.poolMisses.Store(misses)
}

// emit delivers sealed batches to the sink and recycles their storage. The
// per-bucket canonical sort pins the float accumulation order, making the
// emitted vectors independent of how chunks interleaved across workers.
func (w *aggWorker) emit(sealed []netflow.StepBatch) {
	p := w.p
	for _, b := range sealed {
		for dst, recs := range b.ByDst {
			netflow.SortRecordsCanonical(recs)
			if tr := p.cfg.Trace; tr != nil && tr.Sampled(dst) {
				tr.RecordSeal(dst, b.Start, time.Now())
			}
			var feat []float64
			if p.cfg.Extractor != nil {
				w.featBuf = p.cfg.Extractor.ExtractInto(w.featBuf, &w.scratch, dst, b.Start, recs)
				feat = w.featBuf
			}
			w.steps.Add(1)
			if p.cfg.Sink != nil {
				// Submit hands the record slice to the sink's mailbox;
				// ErrClosed during shutdown races is the only expected error
				// and means the step is dropped with the sink's consent.
				_ = p.cfg.Sink.Submit(dst, b.Start, recs)
			} else {
				p.cfg.OnStep(dst, b.Start, feat, recs)
			}
		}
		if p.cfg.Sink != nil {
			w.agg.RecycleShell(b)
		} else {
			w.agg.Recycle(b)
		}
	}
}

// Close stops the pipeline: it waits for in-flight packets to drain,
// flushes every worker's pending chunks and open aggregation buckets
// through the sink, and returns once all workers have exited. HandlePacket
// calls during and after Close are dropped. Close is idempotent.
func (p *Pipeline) Close() error {
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		return nil
	}
	p.closed = true
	p.closeMu.Unlock()
	for _, ch := range p.decodeIn {
		close(ch)
	}
	p.wgDecode.Wait()
	for _, ch := range p.aggIn {
		close(ch)
	}
	p.wgAgg.Wait()
	return nil
}

// Stats sums the workers' counters. Safe to call concurrently with a
// running pipeline; totals are monotone but sampled per worker.
func (p *Pipeline) Stats() Stats {
	var s Stats
	for _, w := range p.decode {
		s.Packets += w.packets.Load()
		s.BadPackets += w.badPackets.Load()
		s.Records += w.records.Load()
		s.DupPackets += w.dup.Load()
		s.ReorderedPackets += w.reordered.Load()
		s.LostRecords += w.lost.Load()
		s.Exporters += w.exporters.Load()
	}
	for _, w := range p.agg {
		s.Steps += w.steps.Load()
		s.DroppedLate += w.droppedLate.Load()
		s.AggPoolHits += w.poolHits.Load()
		s.AggPoolMisses += w.poolMisses.Load()
	}
	s.PoolHits = p.poolHits.Load()
	s.PoolMisses = p.poolMisses.Load()
	return s
}

// getPktBuf takes a pooled packet buffer with capacity ≥ n.
func (p *Pipeline) getPktBuf(n int) []byte {
	p.pktMu.Lock()
	for i := len(p.pktFree) - 1; i >= 0; i-- {
		if cap(p.pktFree[i]) >= n {
			b := p.pktFree[i]
			p.pktFree[i] = p.pktFree[len(p.pktFree)-1]
			p.pktFree = p.pktFree[:len(p.pktFree)-1]
			p.pktMu.Unlock()
			p.poolHits.Add(1)
			return b[:0]
		}
	}
	p.pktMu.Unlock()
	p.poolMisses.Add(1)
	if n < 2048 {
		n = 2048 // datagrams are ≤ 1464 bytes; round up so buffers recirculate
	}
	return make([]byte, 0, n)
}

func (p *Pipeline) putPktBuf(b []byte) {
	p.pktMu.Lock()
	p.pktFree = append(p.pktFree, b[:0])
	p.pktMu.Unlock()
}

// getChunk takes a pooled record chunk (used both as decode scratch and as
// the decode→aggregate handoff unit).
func (p *Pipeline) getChunk() []netflow.Record {
	p.chunkMu.Lock()
	if n := len(p.chunkFree); n > 0 {
		b := p.chunkFree[n-1]
		p.chunkFree = p.chunkFree[:n-1]
		p.chunkMu.Unlock()
		p.poolHits.Add(1)
		return b
	}
	p.chunkMu.Unlock()
	p.poolMisses.Add(1)
	return make([]netflow.Record, 0, chunkSize)
}

func (p *Pipeline) putChunk(b []netflow.Record) {
	if cap(b) == 0 {
		return
	}
	p.chunkMu.Lock()
	p.chunkFree = append(p.chunkFree, b[:0])
	p.chunkMu.Unlock()
}
