package engine

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xatu-go/xatu/internal/cdet"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/telemetry"
	"github.com/xatu-go/xatu/internal/trace"
)

// ErrClosed is returned by Engine methods after Close.
var ErrClosed = errors.New("xatu: engine is closed")

// ErrShardDead is returned (wrapped) when an operation needs a shard
// whose goroutine has exited — only possible with supervision disabled,
// since the supervisor otherwise restarts the shard in place.
var ErrShardDead = errors.New("xatu: shard goroutine has exited")

// ErrBarrierTimeout is returned (wrapped) when a fleet barrier (Drain,
// Checkpoint, Restore) exceeds Config.DrainTimeout.
var ErrBarrierTimeout = errors.New("xatu: barrier timed out")

// Policy selects what Submit does when a shard's mailbox is full.
type Policy uint8

const (
	// Block makes Submit wait for mailbox space: lossless, applies
	// backpressure to the producer. The right choice for replay.
	Block Policy = iota
	// ShedOldest drops the oldest queued telemetry message to make room,
	// counting it in ShardStats.Shed: the producer never blocks, mirroring
	// the exporter's bounded-queue policy. The right choice for live
	// ingest, where blocking the ingest workers loses newer data anyway.
	ShedOldest
)

// Config parameterizes an Engine.
type Config struct {
	// Monitor configures every shard's Monitor. The Extractor and its
	// registries are shared across shards (they are safe for concurrent
	// use); per-customer detector state is not shared — each customer's
	// streams live entirely on the shard that owns the customer.
	Monitor MonitorConfig
	// Shards is the number of single-threaded detection shards.
	// Zero = runtime.GOMAXPROCS(0).
	Shards int
	// Queue is each shard's mailbox capacity. Zero = 256.
	Queue int
	// Policy is the backpressure policy for Submit and ObserveMissing.
	Policy Policy
	// AlertBuffer is the capacity of the fan-in alert channel. The caller
	// must drain Alerts(); once the buffer fills, shards block on alert
	// delivery. Zero = 1024.
	AlertBuffer int
	// Telemetry, when non-nil, registers the engine's metric families
	// (per-shard counters and queue gauges, step/submit/checkpoint latency
	// histograms, per-type alert counters) on the registry and enables
	// latency recording in the shard loops. Nil disables instrumentation;
	// the existing atomic counters behind Stats are kept either way.
	Telemetry *telemetry.Registry

	// Step is the deployment's telemetry aggregation interval; it
	// parameterizes the CDetOnly fallback detector's rate baselines.
	// Zero = one minute.
	Step time.Duration
	// Fallback tunes the pass-through CDet detector that keeps alerts
	// flowing in CDetOnly mode. Nil = FastNetMon parameters at Step.
	Fallback *cdet.Params
	// WAL is the per-shard replay-log capacity: telemetry messages
	// processed since the shard's last background snapshot, replayed after
	// a panic recovery. Zero = 512. Negative disables replay (recovery
	// restarts from the last snapshot alone).
	WAL int
	// CheckpointInterval is how often each shard snapshots its monitor in
	// the background, with no fleet barrier and no pause of the other
	// shards. It bounds restart loss: a recovering shard loses at most the
	// poison message plus whatever its WAL evicted since the last
	// snapshot. Zero = 10s. Negative disables background snapshots.
	CheckpointInterval time.Duration
	// Watchdog is the supervisor tick driving stall detection and the
	// Healthy → Degraded → CDetOnly state machine. Zero = 250ms. Negative
	// disables the watchdog (ForceHealth still works).
	Watchdog time.Duration
	// StallAfter marks a shard stalled when its mailbox has work but no
	// message completes for this long. Zero = 10s.
	StallAfter time.Duration
	// DrainTimeout bounds every fleet-barrier wait (Drain, Checkpoint,
	// Restore) so a dead or wedged shard surfaces as an error instead of a
	// deadlock. Zero = 60s.
	DrainTimeout time.Duration
	// DegradedStepLatency / CDetOnlyStepLatency, when positive, escalate
	// the health state when the mean step latency over a watchdog tick
	// crosses them. Zero disables the latency signal (the queue signal,
	// active under ShedOldest, remains).
	DegradedStepLatency time.Duration
	CDetOnlyStepLatency time.Duration
	// RecoverTicks is the de-escalation hysteresis: consecutive clean
	// watchdog ticks required before the health state steps down one
	// level. Zero = 8.
	RecoverTicks int
	// DisableSupervision lets a shard goroutine die on panic instead of
	// recovering in place. The death is surfaced in Stats/Health and as
	// barrier errors. For tests of the dead-shard paths.
	DisableSupervision bool

	// Trace, when non-nil, records a StageStep span (in-shard inference
	// latency) for every sampled customer's step. Nil (tracing off)
	// costs one pointer check per processed step.
	Trace *trace.Recorder
	// Flight, when non-nil, is the black-box recorder fed with health
	// transitions, shard restarts, quarantines, shed bursts, and
	// checkpoint/restore events; health transitions and panics trigger
	// automatic ring dumps. Nil disables it at one pointer check per
	// event site (all off the hot path).
	Flight *trace.Flight
}

// AlertEvent is one alert annotated with its origin.
type AlertEvent struct {
	// Customer is the protected address the alert fired for.
	Customer netip.Addr
	// At is the step time passed to Submit.
	At time.Time
	// Shard is the index of the shard that raised the alert.
	Shard int
	// Alert is the detection event itself.
	Alert ddos.Alert
	// Trace is the structured decision evidence behind the alert (survival
	// trajectory, per-signal contributions, threshold and calibration);
	// always populated by the engine. It marshals to JSON for operator
	// tooling and the /debug/alerts ring.
	Trace *Trace
}

// ShardStats is a snapshot of one shard's counters.
type ShardStats struct {
	Shard          int
	Submitted      uint64        // telemetry messages enqueued (steps + missing)
	Shed           uint64        // telemetry messages dropped by ShedOldest
	Requeued       uint64        // control messages requeued instead of shed
	Steps          uint64        // ObserveStep calls processed
	Missing        uint64        // ObserveMissing calls processed
	Alerts         uint64        // alerts fanned in from this shard
	Channels       int           // live (customer, attack-type) detector channels
	QueueLen       int           // current mailbox depth
	QueueHighWater int           // max observed mailbox depth
	StepTotal      time.Duration // cumulative ObserveStep latency
	StepMax        time.Duration // worst single ObserveStep latency

	// Self-healing accounting.
	Restarts       uint64        // supervised restarts after a panic
	Quarantined    uint64        // poison messages recovered from (never retried)
	WALReplayed    uint64        // WAL messages replayed across all restarts
	WALDropped     uint64        // WAL entries evicted beyond the replay window
	Lost           uint64        // telemetry unrecoverable after restarts (poison + evicted)
	Bypassed       uint64        // telemetry handled by the CDet fallback in CDetOnly
	FallbackAlerts uint64        // alerts emitted by the CDet fallback
	Snapshots      uint64        // background snapshots published
	RecoveryTotal  time.Duration // cumulative supervised-recovery time
	Stalled        bool          // watchdog: queued work but no recent progress
	Dead           bool          // shard goroutine has exited (supervision disabled)
}

// AvgStep returns the mean ObserveStep latency, or 0 before any step.
func (s ShardStats) AvgStep() time.Duration {
	if s.Steps == 0 {
		return 0
	}
	return s.StepTotal / time.Duration(s.Steps)
}

// Stats aggregates per-shard snapshots: counters and durations sum over
// shards, water marks take the max.
type Stats struct {
	Shards         []ShardStats
	Submitted      uint64
	Shed           uint64
	Requeued       uint64
	Steps          uint64
	Missing        uint64
	Alerts         uint64
	Channels       int           // sum over shards
	QueueLen       int           // sum over shards
	QueueHighWater int           // max over shards
	StepTotal      time.Duration // sum over shards
	StepMax        time.Duration // max over shards

	// Self-healing roll-up.
	Restarts       uint64
	Quarantined    uint64
	WALReplayed    uint64
	WALDropped     uint64
	Lost           uint64
	Bypassed       uint64
	FallbackAlerts uint64
	Snapshots      uint64
	RecoveryTotal  time.Duration
	StalledShards  int
	DeadShards     int
	Health         HealthState
	HealthCause    string
}

// AvgStep returns the fleet-wide mean ObserveStep latency, or 0 before
// any step.
func (s Stats) AvgStep() time.Duration {
	if s.Steps == 0 {
		return 0
	}
	return s.StepTotal / time.Duration(s.Steps)
}

type opcode uint8

const (
	opStep opcode = iota
	opMissing
	opEnd
	opBarrier    // Drain: ack once everything queued before it is done
	opCheckpoint // serialize the shard's monitor into msg.buf
	opSwap       // replace the shard's monitor with msg.mon (Restore)
	opRewrite    // transform the shard's monitor in place (subset restore/remove)
	opInject     // InjectFault: panic inside the shard loop (chaos testing)
)

// opName labels an opcode for flight-recorder events.
func opName(op opcode) string {
	switch op {
	case opStep:
		return "step"
	case opMissing:
		return "missing"
	case opEnd:
		return "end-mitigation"
	case opBarrier:
		return "barrier"
	case opCheckpoint:
		return "checkpoint"
	case opSwap:
		return "swap"
	case opRewrite:
		return "rewrite"
	case opInject:
		return "inject"
	default:
		return "unknown"
	}
}

type message struct {
	op       opcode
	customer netip.Addr
	at       time.Time
	flows    []netflow.Record
	atype    ddos.AttackType
	enq      int64         // UnixNano enqueue stamp (telemetry only; 0 = unstamped)
	done     chan error    // barrier-family acks (buffered, never blocks)
	buf      *bytes.Buffer // opCheckpoint target
	mon      *Monitor      // opSwap replacement
	// rewrite runs inside the shard goroutine for opRewrite: it returns a
	// replacement monitor (nil = keep the current one unchanged). Running
	// on the shard's own goroutine makes checkpoint-filter-rebuild atomic
	// with respect to that shard's step processing — no window exists in
	// which a concurrently submitted step could land on state about to be
	// replaced.
	rewrite func(*Monitor) (*Monitor, error)
}

type shard struct {
	id   int
	mon  *Monitor
	mail chan message

	submitted atomic.Uint64
	shed      atomic.Uint64
	requeued  atomic.Uint64
	steps     atomic.Uint64
	missing   atomic.Uint64
	alerts    atomic.Uint64
	channels  atomic.Int64
	stepNanos atomic.Uint64
	stepMax   atomic.Uint64
	highWater atomic.Int64

	// Supervision counters (read by Stats/Health/watchdog).
	handled       atomic.Uint64 // messages fully processed (watchdog progress signal)
	restarts      atomic.Uint64
	quarantined   atomic.Uint64
	walReplayed   atomic.Uint64
	walDropped    atomic.Uint64
	lost          atomic.Uint64
	bypassed      atomic.Uint64
	fbAlerts      atomic.Uint64
	snapshots     atomic.Uint64
	recoveryNanos atomic.Uint64
	stalled       atomic.Bool
	dead          atomic.Bool
	deadCh        chan struct{} // closed when the shard goroutine exits abnormally

	// snap is the latest background snapshot (recovery basis), published
	// by the shard goroutine, read by CheckpointIncremental and recovery.
	snap atomic.Pointer[shardSnapshot]

	// WAL state below is touched only by the owning shard goroutine.
	wal        []walEntry
	walHead    int
	walN       int
	walEvicted uint64 // entries evicted since the last snapshot
	lastSnap   time.Time

	fb *cdet.Detector // lazily-built CDetOnly fallback

	panicMu   sync.Mutex
	lastPanic string
}

// Engine is a sharded concurrent detection engine: N single-threaded
// Monitors, each behind a bounded mailbox, with customers partitioned by
// a stable hash of their address. Submit, ObserveMissing, EndMitigation
// and Alerts are safe for concurrent use from any number of goroutines.
//
// Lifecycle methods — Drain, Checkpoint, Restore, Close — are barriers
// over the whole fleet and must not race with each other or with
// producers still submitting; quiesce producers first (the alert channel
// must keep being drained, or a checkpoint can deadlock behind an
// undelivered alert).
type Engine struct {
	cfg    Config
	shards []*shard
	alerts chan AlertEvent
	mx     *engineMetrics // nil when Config.Telemetry is nil
	done   chan struct{}
	wg     sync.WaitGroup

	// Health state machine (see supervisor.go).
	health atomic.Int32 // current HealthState
	forced atomic.Int32 // ForceHealth override; -1 = automatic

	transMu     sync.Mutex
	healthCause string
	trans       []HealthTransition

	closeOnce sync.Once
}

// New validates the configuration, builds one Monitor per shard and
// starts the shard goroutines plus the supervising watchdog.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 256
	}
	if cfg.AlertBuffer <= 0 {
		cfg.AlertBuffer = 1024
	}
	if cfg.Step <= 0 {
		cfg.Step = time.Minute
	}
	if cfg.Fallback == nil {
		p := cdet.FastNetMonParams(cfg.Step)
		cfg.Fallback = &p
	}
	if cfg.WAL == 0 {
		cfg.WAL = 512
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 10 * time.Second
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 250 * time.Millisecond
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 60 * time.Second
	}
	if cfg.RecoverTicks <= 0 {
		cfg.RecoverTicks = 8
	}
	e := &Engine{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		alerts: make(chan AlertEvent, cfg.AlertBuffer),
		done:   make(chan struct{}),
	}
	e.forced.Store(-1)
	now := time.Now()
	for i := range e.shards {
		mon, err := NewMonitor(cfg.Monitor)
		if err != nil {
			return nil, err
		}
		s := &shard{id: i, mon: mon, mail: make(chan message, cfg.Queue),
			deadCh: make(chan struct{}), lastSnap: now}
		if cfg.WAL > 0 {
			s.wal = make([]walEntry, cfg.WAL)
		}
		e.shards[i] = s
	}
	if cfg.Telemetry != nil {
		e.mx = e.registerMetrics(cfg.Telemetry)
	}
	e.wg.Add(len(e.shards))
	for _, s := range e.shards {
		go e.runShard(s)
	}
	if cfg.Watchdog > 0 {
		e.wg.Add(1)
		go e.watchdog(cfg.Watchdog)
	}
	return e, nil
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardOf returns the shard index that owns the customer. The mapping is
// a stable FNV-1a hash over the address's 16-byte form: the same customer
// lands on the same shard on every run, every process, and every restore
// with the same shard count.
func (e *Engine) ShardOf(customer netip.Addr) int {
	return shardOf(customer, len(e.shards))
}

// ShardOf is the package-level form of Engine.ShardOf: the stable FNV-1a
// customer → shard mapping for n shards. Exported so upstream stages (the
// ingest pipeline's aggregation workers) can partition work by the same
// function and preserve per-customer ordering end to end.
func ShardOf(customer netip.Addr, n int) int {
	return shardOf(customer, n)
}

func shardOf(customer netip.Addr, n int) int {
	return int(addrHash(customer) % uint64(n))
}

// addrHash is the stable FNV-1a hash over the address's 16-byte form that
// every partitioning level derives from. Using As16 makes an IPv4 address
// and its v4-mapped IPv6 form hash identically, so a customer keeps its
// placement no matter which representation a decoder produced.
func addrHash(customer netip.Addr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	b := customer.As16()
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// NodeOf is the two-level fleet generalization of ShardOf: it partitions a
// customer first across nodes, then across shards within the owning node.
// The node level remixes the shared FNV-1a hash through a 64-bit finalizer
// so the two levels stay independent — without it, nodes == shards would
// pin every customer of node i onto shard i. The shard level IS ShardOf,
// so a fleet of one node places every customer exactly where a
// single-process Engine does: NodeOf(c, 1, n) == (0, ShardOf(c, n)).
func NodeOf(customer netip.Addr, nodes, shards int) (node, shard int) {
	h := addrHash(customer)
	m := h
	m ^= m >> 33
	m *= 0xff51afd7ed558ccd
	m ^= m >> 33
	m *= 0xc4ceb9fe1a85ec53
	m ^= m >> 33
	return int(m % uint64(nodes)), int(h % uint64(shards))
}

// Alerts returns the fan-in alert channel. Alerts from one customer are
// delivered in step order (its shard processes sequentially); ordering
// across shards is best-effort. The channel is closed by Close.
func (e *Engine) Alerts() <-chan AlertEvent { return e.alerts }

// Submit routes one step of flows for the customer to its owning shard.
// It never blocks under ShedOldest (dropping the oldest queued telemetry
// instead, counted per shard); under Block it waits for mailbox space.
// The flows slice is handed off: the caller must not reuse it.
func (e *Engine) Submit(customer netip.Addr, at time.Time, flows []netflow.Record) error {
	return e.submitTelemetry(message{op: opStep, customer: customer, at: at, flows: flows})
}

// ObserveMissing routes a missing-telemetry step for the customer to its
// owning shard, with the same backpressure policy as Submit.
func (e *Engine) ObserveMissing(customer netip.Addr, at time.Time) error {
	return e.submitTelemetry(message{op: opMissing, customer: customer, at: at})
}

func (e *Engine) submitTelemetry(msg message) error {
	if e.closed() {
		return ErrClosed
	}
	if e.mx != nil {
		msg.enq = time.Now().UnixNano()
	}
	s := e.shards[e.ShardOf(msg.customer)]
	if s.dead.Load() {
		return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
	}
	if e.cfg.Policy == Block {
		select {
		case s.mail <- msg:
		case <-s.deadCh:
			return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
		case <-e.done:
			return ErrClosed
		}
		s.noteEnqueued()
		return nil
	}
	for {
		select {
		case s.mail <- msg:
			s.noteEnqueued()
			return nil
		case <-s.deadCh:
			return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
		case <-e.done:
			return ErrClosed
		default:
		}
		// Mailbox full: make room by shedding the oldest queued telemetry.
		select {
		case old := <-s.mail:
			if old.op == opStep || old.op == opMissing {
				s.shed.Add(1)
			} else {
				// A control message (EndMitigation) must never be lost:
				// requeue it. Under overload it is reordered behind the
				// queue tail, which beats dropping the signal.
				s.requeued.Add(1)
				s.mail <- old
			}
		case <-e.done:
			return ErrClosed
		default:
			// The shard drained the mailbox between the two selects; retry.
		}
	}
}

func (s *shard) noteEnqueued() {
	s.submitted.Add(1)
	depth := int64(len(s.mail))
	for {
		hw := s.highWater.Load()
		if depth <= hw || s.highWater.CompareAndSwap(hw, depth) {
			return
		}
	}
}

// EndMitigation routes a CScrub mitigation-end signal to the customer's
// owning shard. It is ordered with the customer's queued telemetry and is
// never shed.
func (e *Engine) EndMitigation(customer netip.Addr, at ddos.AttackType) error {
	if e.closed() {
		return ErrClosed
	}
	s := e.shards[e.ShardOf(customer)]
	if s.dead.Load() {
		return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
	}
	select {
	case s.mail <- message{op: opEnd, customer: customer, atype: at}:
		return nil
	case <-s.deadCh:
		return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
	case <-e.done:
		return ErrClosed
	}
}

// Drain blocks until every message submitted before the call has been
// fully processed. It must not race with producers still submitting.
// A dead shard or a wait past Config.DrainTimeout returns an error
// (wrapping ErrShardDead / ErrBarrierTimeout) instead of hanging.
func (e *Engine) Drain() error {
	errs, err := e.barrier(func(s *shard) message {
		return message{op: opBarrier}
	})
	if err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("xatu: drain shard %d: %w", i, err)
		}
	}
	return nil
}

func (e *Engine) closed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// barrier sends one message per shard and waits for every ack. The whole
// barrier shares one Config.DrainTimeout budget, and a dead shard aborts
// it immediately with the shard's last panic — a shard that exited can
// never wedge a Drain/Checkpoint/Restore.
func (e *Engine) barrier(mk func(*shard) message) ([]error, error) {
	if e.closed() {
		return nil, ErrClosed
	}
	timer := time.NewTimer(e.cfg.DrainTimeout)
	defer timer.Stop()
	acks := make([]chan error, len(e.shards))
	for i, s := range e.shards {
		msg := mk(s)
		msg.done = make(chan error, 1)
		acks[i] = msg.done
		select {
		case s.mail <- msg:
		case <-s.deadCh:
			return nil, fmt.Errorf("%w (shard %d: %s)", ErrShardDead, i, s.panicDetail())
		case <-timer.C:
			return nil, fmt.Errorf("%w after %v sending to shard %d (queue %d/%d)",
				ErrBarrierTimeout, e.cfg.DrainTimeout, i, len(s.mail), cap(s.mail))
		case <-e.done:
			return nil, ErrClosed
		}
	}
	errs := make([]error, len(acks))
	for i, d := range acks {
		select {
		case errs[i] = <-d:
		case <-e.shards[i].deadCh:
			// The shard died after the send; prefer a late ack if one
			// raced in ahead of the death notice.
			select {
			case errs[i] = <-d:
			default:
				return nil, fmt.Errorf("%w (shard %d: %s)", ErrShardDead, i, e.shards[i].panicDetail())
			}
		case <-timer.C:
			return nil, fmt.Errorf("%w after %v waiting for shard %d",
				ErrBarrierTimeout, e.cfg.DrainTimeout, i)
		case <-e.done:
			return nil, ErrClosed
		}
	}
	return errs, nil
}

// Stats snapshots per-shard and aggregate counters.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(e.shards))}
	st.Health = e.healthNow()
	st.HealthCause = e.HealthCause()
	for i, s := range e.shards {
		ss := ShardStats{
			Shard:          i,
			Submitted:      s.submitted.Load(),
			Shed:           s.shed.Load(),
			Requeued:       s.requeued.Load(),
			Steps:          s.steps.Load(),
			Missing:        s.missing.Load(),
			Alerts:         s.alerts.Load(),
			Channels:       int(s.channels.Load()),
			QueueLen:       len(s.mail),
			QueueHighWater: int(s.highWater.Load()),
			StepTotal:      time.Duration(s.stepNanos.Load()),
			StepMax:        time.Duration(s.stepMax.Load()),
			Restarts:       s.restarts.Load(),
			Quarantined:    s.quarantined.Load(),
			WALReplayed:    s.walReplayed.Load(),
			WALDropped:     s.walDropped.Load(),
			Lost:           s.lost.Load(),
			Bypassed:       s.bypassed.Load(),
			FallbackAlerts: s.fbAlerts.Load(),
			Snapshots:      s.snapshots.Load(),
			RecoveryTotal:  time.Duration(s.recoveryNanos.Load()),
			Stalled:        s.stalled.Load(),
			Dead:           s.dead.Load(),
		}
		st.Shards[i] = ss
		st.Submitted += ss.Submitted
		st.Shed += ss.Shed
		st.Requeued += ss.Requeued
		st.Steps += ss.Steps
		st.Missing += ss.Missing
		st.Alerts += ss.Alerts
		st.Channels += ss.Channels
		st.QueueLen += ss.QueueLen
		st.StepTotal += ss.StepTotal
		st.Restarts += ss.Restarts
		st.Quarantined += ss.Quarantined
		st.WALReplayed += ss.WALReplayed
		st.WALDropped += ss.WALDropped
		st.Lost += ss.Lost
		st.Bypassed += ss.Bypassed
		st.FallbackAlerts += ss.FallbackAlerts
		st.Snapshots += ss.Snapshots
		st.RecoveryTotal += ss.RecoveryTotal
		if ss.Stalled {
			st.StalledShards++
		}
		if ss.Dead {
			st.DeadShards++
		}
		if ss.QueueHighWater > st.QueueHighWater {
			st.QueueHighWater = ss.QueueHighWater
		}
		if ss.StepMax > st.StepMax {
			st.StepMax = ss.StepMax
		}
	}
	return st
}

// Close stops all shards and closes the alert channel. Queued messages
// not yet processed are abandoned; Drain first for a graceful stop.
// Close is idempotent.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.wg.Wait()
		close(e.alerts)
	})
	return nil
}

func (e *Engine) runShard(s *shard) {
	defer e.wg.Done()
	defer func() {
		// Abnormal exit: the engine still runs but this shard is gone
		// (supervision disabled, or an unrecoverable monitor rebuild).
		// Publish the death so Submit and barriers fail fast instead of
		// wedging on a mailbox nobody reads.
		if !e.closed() {
			s.dead.Store(true)
			close(s.deadCh)
		}
	}()
	for {
		select {
		case <-e.done:
			return
		case msg := <-s.mail:
			if !e.supervise(s, msg) {
				return
			}
		}
	}
}

// handle processes one message under health state st; it reports false
// when the engine closed mid-message (alert delivery aborted).
func (e *Engine) handle(s *shard, msg message, st HealthState) bool {
	switch msg.op {
	case opStep:
		if st == CDetOnly {
			// Model inference is shed: the pass-through CDet fallback
			// confirms volumetric anomalies so alerts keep flowing.
			if !e.fallbackStep(s, msg, true) {
				return false
			}
			s.bypassed.Add(1)
			e.observeSubmitLatency(msg.enq)
			return true
		}
		start := time.Now()
		var alerts []ddos.Alert
		var traces []*Trace
		if st == Degraded {
			// Traces are the first load shed: detection is unchanged,
			// alerts just carry no decision evidence.
			alerts = s.mon.ObserveStep(msg.customer, msg.at, msg.flows)
		} else {
			alerts, traces = s.mon.ObserveStepTraced(msg.customer, msg.at, msg.flows)
		}
		el := uint64(time.Since(start))
		s.stepNanos.Add(el)
		for {
			prev := s.stepMax.Load()
			if el <= prev || s.stepMax.CompareAndSwap(prev, el) {
				break
			}
		}
		s.steps.Add(1)
		s.channels.Store(int64(s.mon.Channels()))
		if e.mx != nil {
			e.mx.stepLatency.Observe(time.Duration(el))
		}
		if tr := e.cfg.Trace; tr != nil && tr.Sampled(msg.customer) {
			tr.Record(msg.customer, msg.at, trace.StageStep, time.Duration(el), shardDetail(s.id))
		}
		for i, a := range alerts {
			s.alerts.Add(1)
			if e.mx != nil {
				if at := a.Sig.Type; at >= 0 && at < ddos.NumAttackTypes {
					e.mx.alertsByType[at].Inc()
				}
			}
			var tr *Trace
			if traces != nil {
				tr = traces[i]
			}
			select {
			case e.alerts <- AlertEvent{Customer: msg.customer, At: msg.at, Shard: s.id, Alert: a, Trace: tr}:
			case <-e.done:
				return false
			}
		}
		// Keep the fallback's baselines warm so a later CDetOnly entry
		// starts with learned thresholds, not a cold warm-up.
		e.fallbackStep(s, msg, false)
		e.observeSubmitLatency(msg.enq)
	case opMissing:
		if st == CDetOnly {
			s.bypassed.Add(1)
		} else {
			s.mon.ObserveMissing(msg.customer, msg.at)
			s.missing.Add(1)
		}
		e.fallbackMissing(s, msg)
		e.observeSubmitLatency(msg.enq)
	case opEnd:
		// Mitigation lifecycle always reaches the monitor: its state must
		// stay consistent for the return to Healthy.
		s.mon.EndMitigation(msg.customer, msg.atype)
		if e.mx != nil {
			e.mx.mitigationEnds.Inc()
		}
	case opBarrier:
		msg.done <- nil
	case opCheckpoint:
		err := s.mon.Checkpoint(msg.buf)
		if err == nil {
			// A full checkpoint is also a fresh recovery basis.
			s.publishSnapshot(append([]byte(nil), msg.buf.Bytes()...))
		}
		msg.done <- err
	case opSwap:
		s.mon = msg.mon
		s.channels.Store(int64(s.mon.Channels()))
		// Old snapshot and WAL describe the replaced state; re-base on the
		// restored monitor immediately so a crash right after a Restore
		// recovers the restored state, not the pre-restore one.
		s.walHead, s.walN, s.walEvicted = 0, 0, 0
		s.snap.Store(nil)
		e.snapshotShard(s)
		msg.done <- nil
	case opRewrite:
		mon, err := msg.rewrite(s.mon)
		if err == nil && mon != nil {
			s.mon = mon
			s.channels.Store(int64(s.mon.Channels()))
			// Same re-basing rules as opSwap: the snapshot and WAL describe
			// the pre-rewrite state.
			s.walHead, s.walN, s.walEvicted = 0, 0, 0
			s.snap.Store(nil)
			e.snapshotShard(s)
		}
		msg.done <- err
	case opInject:
		panic(fmt.Sprintf("engine: injected fault on shard %d", s.id))
	default:
		panic(fmt.Sprintf("engine: unknown opcode %d", msg.op))
	}
	return true
}

// observeSubmitLatency records enqueue-to-processed latency for a stamped
// telemetry message (alerts, if any, have already been emitted).
func (e *Engine) observeSubmitLatency(enq int64) {
	if e.mx == nil || enq == 0 {
		return
	}
	e.mx.submitLatency.Observe(time.Duration(time.Now().UnixNano() - enq))
}

// shardDetail renders the span-detail label for a shard. Small shard
// indices (the common case) come from a precomputed table so sampled
// steps don't pay a fmt call.
func shardDetail(id int) string {
	if id >= 0 && id < len(shardDetails) {
		return shardDetails[id]
	}
	return fmt.Sprintf("shard %d", id)
}

var shardDetails = func() [64]string {
	var t [64]string
	for i := range t {
		t[i] = fmt.Sprintf("shard %d", i)
	}
	return t
}()
