package netflow

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/xatu-go/xatu/internal/telemetry"
	"github.com/xatu-go/xatu/internal/trace"
)

// ErrExporterClosed is returned by Export/Flush after Close.
var ErrExporterClosed = errors.New("netflow: exporter is closed")

// ExporterConfig tunes the fault-tolerant exporter. The zero value of every
// optional field picks a sensible default.
type ExporterConfig struct {
	// Addr is the collector address ("host:port"); used by the default
	// dialer and ignored when Dial is set.
	Addr string
	// Sampling is the advertised 1:N sampling interval.
	Sampling uint16
	// MaxPending caps the pending-record queue while the collector is
	// unreachable; overflow sheds the oldest records (counted in Stats).
	// Default 4096.
	MaxPending int
	// BaseBackoff is the initial reconnect delay after a write or dial
	// failure; it doubles per consecutive failure up to MaxBackoff.
	// Defaults 50ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Dial opens the collector socket; nil dials UDP to Addr. Tests inject
	// chaos conns here.
	Dial func() (net.Conn, error)
	// BootTime, when set, anchors the v5 uptime clock at a fixed instant
	// and runs the exporter entirely on the record clock: the datagram
	// header's wall clock tracks the latest flow End exported instead of
	// time.Now(), so decoded records recover their original timestamps.
	// Use this when exporting simulated or replayed flows to an event-time
	// consumer (e.g. the ingest pipeline); BootTime must precede every
	// record's Start by less than the uptime clock's ~49-day range. Zero
	// keeps the default live behavior (boot ≈ one minute before
	// construction, flow times clamped into the wall-clock epoch).
	BootTime time.Time
	// TraceSample, when positive, enables deterministic 1-in-N flow
	// tracing: datagrams carrying at least one sampled customer (by
	// trace.Sampler's stable hash of the destination) get a versioned
	// trailer stamping the export wall clock, which downstream decoders
	// use to anchor the export→decode latency leg. Decoders without
	// tracing ignore the trailer. Zero (the default) leaves the wire
	// format untouched.
	TraceSample int
}

// ExporterStats counts the exporter's fault-handling activity.
type ExporterStats struct {
	Sent        uint64 // records successfully written to the socket
	Shed        uint64 // records dropped because the pending queue overflowed
	WriteErrors uint64 // datagram write failures
	DialErrors  uint64 // reconnect attempts that failed
	Reconnects  uint64 // successful re-dials after a failure
	Pending     int    // records currently queued
}

// Exporter batches flow records into NetFlow v5 datagrams and sends them to
// a collector over UDP, mirroring a router's NetFlow export engine. A write
// failure no longer kills the exporter: records queue (bounded) while it
// reconnects with exponential backoff, and overflow is shed oldest-first,
// exactly like a router's export buffer.
type Exporter struct {
	dial     func() (net.Conn, error)
	bootTime time.Time
	simClock bool // record-clock mode: header clock follows flow times, not time.Now
	sampling uint16
	tracer   *trace.Sampler // nil = tracing off (no wire change, no per-record hash)

	mu          sync.Mutex
	conn        net.Conn // nil while disconnected
	pending     []Record
	seq         uint32
	closed      bool
	maxPending  int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	backoff     time.Duration // next reconnect delay (pre-jitter)
	// jitter draws the actual wait from the current backoff ceiling; the
	// default is full jitter (uniform in [0, d]). Injectable for tests.
	jitter    func(d time.Duration) time.Duration
	downUntil time.Time // no send attempts before this instant
	hdrClock  time.Time // record-clock mode: latest flow End exported (monotone)
	stats     ExporterStats
}

// NewExporter dials the collector at addr ("host:port") with default
// fault-tolerance settings.
func NewExporter(addr string, sampling uint16) (*Exporter, error) {
	return NewExporterWithConfig(ExporterConfig{Addr: addr, Sampling: sampling})
}

// NewExporterWithConfig dials the collector with explicit queue and
// backoff settings. The initial dial must succeed; later failures are
// absorbed by the reconnect loop.
func NewExporterWithConfig(cfg ExporterConfig) (*Exporter, error) {
	dial := cfg.Dial
	if dial == nil {
		addr := cfg.Addr
		dial = func() (net.Conn, error) { return net.Dial("udp", addr) }
	}
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("netflow: dialing collector: %w", err)
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	bootTime := cfg.BootTime
	simClock := !bootTime.IsZero()
	if !simClock {
		bootTime = time.Now().Add(-time.Minute) // pretend the router booted a minute ago
	}
	return &Exporter{
		dial:        dial,
		conn:        conn,
		bootTime:    bootTime,
		simClock:    simClock,
		hdrClock:    bootTime,
		sampling:    cfg.Sampling,
		tracer:      trace.NewSampler(cfg.TraceSample),
		maxPending:  cfg.MaxPending,
		baseBackoff: cfg.BaseBackoff,
		maxBackoff:  cfg.MaxBackoff,
		backoff:     cfg.BaseBackoff,
		jitter:      fullJitter,
	}, nil
}

// fullJitter draws a delay uniformly from [0, d]. A fleet of exporters cut
// off by the same collector outage spreads its reconnect attempts across
// the whole backoff window instead of thundering back in lockstep.
func fullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// nextBackoffLocked returns the jittered delay before the next reconnect
// attempt and doubles the schedule up to the MaxBackoff ceiling.
func (e *Exporter) nextBackoffLocked() time.Duration {
	d := e.jitter(e.backoff)
	e.backoff = minDuration(e.backoff*2, e.maxBackoff)
	return d
}

// Export queues a record, flushing a full datagram when 30 records are
// pending. Invalid records are rejected immediately so they can never
// poison the retry queue. Transport failures are absorbed (see Stats),
// not returned.
func (e *Exporter) Export(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrExporterClosed
	}
	e.pending = append(e.pending, r)
	if over := len(e.pending) - e.maxPending; over > 0 {
		e.stats.Shed += uint64(over)
		e.pending = e.pending[over:] // shed oldest: fresher telemetry wins
	}
	if len(e.pending) >= MaxRecordsPerPacket {
		return e.flushLocked()
	}
	return nil
}

// Flush sends any pending records immediately (as many full datagrams as
// needed). While the collector is unreachable records stay queued and
// Flush returns nil; failures are visible via Stats.
func (e *Exporter) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrExporterClosed
	}
	return e.flushLocked()
}

func (e *Exporter) flushLocked() error {
	for len(e.pending) > 0 {
		if e.conn == nil && !e.redialLocked() {
			return nil // still backing off; records stay pending
		}
		n := len(e.pending)
		if n > MaxRecordsPerPacket {
			n = MaxRecordsPerPacket
		}
		// Clamp flow timestamps into the exporter's uptime epoch; simulated
		// flows may carry synthetic wall-clock times predating bootTime. In
		// record-clock mode there is no wall clamp — the header clock instead
		// follows the latest flow End (kept monotone across datagrams), so
		// decoded records recover their original timestamps.
		now := time.Now()
		batch := make([]Record, n)
		copy(batch, e.pending[:n])
		for i := range batch {
			if batch[i].Start.Before(e.bootTime) {
				d := batch[i].End.Sub(batch[i].Start)
				batch[i].Start = e.bootTime
				batch[i].End = e.bootTime.Add(d)
			}
			if e.simClock {
				if batch[i].End.After(e.hdrClock) {
					e.hdrClock = batch[i].End
				}
				continue
			}
			if batch[i].End.After(now) {
				batch[i].End = now
				if batch[i].Start.After(now) {
					batch[i].Start = now
				}
			}
		}
		if e.simClock {
			now = e.hdrClock
		}
		pkt, err := EncodeV5(batch, e.bootTime, now, e.seq, e.sampling)
		if err != nil {
			// Records are validated on Export, so this is unreachable in
			// practice; shed the batch rather than wedge the queue on it.
			e.stats.Shed += uint64(n)
			e.pending = e.pending[n:]
			continue
		}
		if e.tracer != nil && batchSampled(e.tracer, batch) {
			// Stamp the export wall clock (real time even in record-clock
			// mode: trace latencies measure the serving path, not the
			// simulated world) so the first ingest hop can anchor the
			// export→decode leg. Old decoders ignore the extra bytes.
			pkt = AppendTrailerV1(pkt, e.tracer.Rate(), time.Now())
		}
		if _, err := e.conn.Write(pkt); err != nil {
			e.stats.WriteErrors++
			e.conn.Close()
			e.conn = nil
			e.downUntil = time.Now().Add(e.nextBackoffLocked())
			return nil // retried on a later Flush/Export
		}
		e.backoff = e.baseBackoff
		e.seq += uint32(n)
		e.stats.Sent += uint64(n)
		e.pending = e.pending[n:]
	}
	return nil
}

// batchSampled reports whether any record in the batch belongs to a
// traced customer (keyed by destination — the protected address).
func batchSampled(s *trace.Sampler, batch []Record) bool {
	// Records for one customer arrive in runs; skip the hash for a
	// repeated destination.
	var last netip.Addr
	for i := range batch {
		if d := batch[i].Dst; d != last {
			if s.Sampled(d) {
				return true
			}
			last = d
		}
	}
	return false
}

// redialLocked attempts to re-establish the socket, respecting backoff.
// It reports whether a usable conn is now available.
func (e *Exporter) redialLocked() bool {
	if time.Now().Before(e.downUntil) {
		return false
	}
	conn, err := e.dial()
	if err != nil {
		e.stats.DialErrors++
		e.downUntil = time.Now().Add(e.nextBackoffLocked())
		return false
	}
	e.conn = conn
	e.stats.Reconnects++
	e.backoff = e.baseBackoff
	return true
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// RegisterMetrics exposes the exporter's fault-handling counters on reg
// as the xatu_exporter_* families. The readers lock the exporter mutex at
// scrape time; the export hot path is untouched.
func (e *Exporter) RegisterMetrics(reg *telemetry.Registry) {
	counter := func(get func(ExporterStats) uint64) func() float64 {
		return func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(get(e.stats))
		}
	}
	reg.CounterFunc("xatu_exporter_sent_records_total",
		"Records successfully written to the collector socket.",
		counter(func(s ExporterStats) uint64 { return s.Sent }))
	reg.CounterFunc("xatu_exporter_shed_records_total",
		"Records dropped because the pending queue overflowed.",
		counter(func(s ExporterStats) uint64 { return s.Shed }))
	reg.CounterFunc("xatu_exporter_write_errors_total",
		"Datagram write failures.",
		counter(func(s ExporterStats) uint64 { return s.WriteErrors }))
	reg.CounterFunc("xatu_exporter_dial_errors_total",
		"Reconnect attempts that failed.",
		counter(func(s ExporterStats) uint64 { return s.DialErrors }))
	reg.CounterFunc("xatu_exporter_reconnects_total",
		"Successful re-dials after a failure.",
		counter(func(s ExporterStats) uint64 { return s.Reconnects }))
	reg.GaugeFunc("xatu_exporter_pending_records",
		"Records queued while the collector is unreachable.",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(len(e.pending))
		})
	reg.GaugeFunc("xatu_exporter_connected",
		"1 while the collector socket is up, 0 while reconnecting.",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			if e.conn != nil {
				return 1
			}
			return 0
		})
}

// Sent reports the number of records exported so far.
func (e *Exporter) Sent() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats.Sent
}

// Stats returns a snapshot of the exporter's counters.
func (e *Exporter) Stats() ExporterStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Pending = len(e.pending)
	return s
}

// Close flushes, then closes the underlying socket. It is idempotent:
// closing twice returns nil rather than a socket error.
func (e *Exporter) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	flushErr := e.flushLocked()
	e.closed = true
	conn := e.conn
	e.conn = nil
	e.mu.Unlock()
	var closeErr error
	if conn != nil {
		closeErr = conn.Close()
	}
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// seenRing remembers the last packet sequence numbers from one exporter so
// duplicates can be told apart from late (reordered) datagrams.
const seenRingSize = 64

// exporterState tracks one (source address, engine) NetFlow v5 stream.
type exporterState struct {
	inited bool
	next   uint32 // expected FlowSequence of the next datagram
	seen   [seenRingSize]uint32
	seenN  int
	seenAt int
}

// SeqTracker runs per-exporter NetFlow v5 sequence accounting for a
// single-threaded consumer that holds its own state: one ingest decode
// worker owns all packets of its hashed sources, so tracking needs no
// lock. Upstream loss, duplication and reordering are counted separately.
// Not safe for concurrent use.
type SeqTracker struct {
	src       map[sourceKey]*exporterState
	dup       uint64
	reordered uint64
	lost      uint64
}

// NewSeqTracker returns an empty tracker.
func NewSeqTracker() *SeqTracker {
	return &SeqTracker{src: make(map[sourceKey]*exporterState)}
}

// Track accounts one datagram from src carrying nrecs records under header
// h and reports whether it is a duplicate to drop. Loss, duplication, and
// reorder totals accumulate internally (see Counters). Signed distance
// handles sequence wraparound at 2^32. The steady state allocates
// nothing: the (source, engine) key is an equality-comparable struct.
func (t *SeqTracker) Track(src string, h Header, nrecs int) (drop bool) {
	key := sourceKey{src: src, engineType: h.EngineType, engineID: h.EngineID}
	st := t.src[key]
	if st == nil {
		st = &exporterState{}
		t.src[key] = st
	}
	flowSeq := h.FlowSequence
	if !st.inited {
		st.inited = true
		st.next = flowSeq + uint32(nrecs)
		st.remember(flowSeq)
		return false
	}
	switch diff := int32(flowSeq - st.next); {
	case diff == 0: // in order
		st.next += uint32(nrecs)
		st.remember(flowSeq)
	case diff > 0: // gap: diff records never arrived (so far)
		t.lost += uint64(diff)
		st.next = flowSeq + uint32(nrecs)
		st.remember(flowSeq)
	default: // datagram from the past
		if st.recentlySeen(flowSeq) {
			t.dup++
			return true
		}
		// Late arrival of a datagram we charged as lost: deliver it and
		// refund the gap accounting.
		t.reordered++
		t.lost -= min(uint64(nrecs), t.lost)
		st.remember(flowSeq)
	}
	return false
}

// Counters reports the tracker's running loss-accounting totals.
func (t *SeqTracker) Counters() (dupPackets, reorderedPackets, lostRecords uint64) {
	return t.dup, t.reordered, t.lost
}

// Exporters reports the distinct (source, engine) streams observed.
func (t *SeqTracker) Exporters() int { return len(t.src) }

// sourceKey identifies one (source, engine) export stream; an
// equality-comparable struct key allocates nothing on the per-datagram
// lookup path.
type sourceKey struct {
	src        string
	engineType uint8
	engineID   uint8
}

func (s *exporterState) remember(seq uint32) {
	s.seen[s.seenAt] = seq
	s.seenAt = (s.seenAt + 1) % seenRingSize
	if s.seenN < seenRingSize {
		s.seenN++
	}
}

func (s *exporterState) recentlySeen(seq uint32) bool {
	for i := 0; i < s.seenN; i++ {
		if s.seen[i] == seq {
			return true
		}
	}
	return false
}

// Sampler applies 1:N random packet sampling to a flow stream, the way the
// ISP's routers sample NetFlow (§2.2). For a flow of P packets it draws the
// number of sampled packets from Binomial(P, 1/N) and, when positive, emits
// the flow with packet and byte counts scaled back up by N — the standard
// inversion estimator, unbiased in expectation (verified by tests).
type Sampler struct {
	N   int
	rng *rand.Rand
}

// NewSampler returns a 1:n sampler; n <= 1 passes everything through.
func NewSampler(n int, rng *rand.Rand) *Sampler {
	if n < 1 {
		n = 1
	}
	return &Sampler{N: n, rng: rng}
}

// Sample returns the sampled-and-rescaled record and whether it survived.
func (s *Sampler) Sample(r Record) (Record, bool) {
	if s.N == 1 {
		return r, true
	}
	p := 1 / float64(s.N)
	var kept uint32
	// Binomial draw; flows are small enough (minutes of traffic) that a
	// direct Bernoulli loop is fine and exact.
	if r.Packets > 10000 {
		// Gaussian approximation for big flows to bound CPU.
		mean := float64(r.Packets) * p
		sd := mean * (1 - p)
		k := s.rng.NormFloat64()*math.Sqrt(sd) + mean
		if k < 0 {
			k = 0
		}
		kept = uint32(k + 0.5)
		if kept > r.Packets {
			kept = r.Packets
		}
	} else {
		for i := uint32(0); i < r.Packets; i++ {
			if s.rng.Float64() < p {
				kept++
			}
		}
	}
	if kept == 0 {
		return Record{}, false
	}
	bytesPerPkt := float64(r.Bytes) / float64(r.Packets)
	out := r
	out.Packets = kept * uint32(s.N)
	out.Bytes = uint32(bytesPerPkt*float64(kept)*float64(s.N) + 0.5)
	return out, true
}
