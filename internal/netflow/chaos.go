package netflow

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Chaos transport: deterministic, seeded fault injection on the datagram
// path between an Exporter and its consumer. Real routers export NetFlow
// over unacknowledged UDP through congested links, so the §2.6 deployment
// loop must detect through dropped, duplicated, reordered, corrupted and
// delayed datagrams. ChaosConn wraps any net.Conn (the exporter's UDP
// socket); NewChaosPipe builds a fully in-memory, synchronous path into a
// PacketSink so integration tests are bit-for-bit reproducible.

// ChaosConfig sets per-write fault probabilities. Each fault type draws
// from its own seeded RNG (derived from Seed), so e.g. the drop pattern at
// a given seed is identical whether or not duplication is also enabled.
type ChaosConfig struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// DropRate is the probability a datagram is silently discarded.
	DropRate float64
	// DupRate is the probability a delivered datagram is delivered twice.
	DupRate float64
	// CorruptRate is the probability 1–4 random bytes are flipped.
	CorruptRate float64
	// ReorderRate is the probability a datagram is held back and delivered
	// after the next write instead of in order.
	ReorderRate float64
	// DelayRate is the probability a datagram is delivered asynchronously
	// after a random delay in (0, MaxDelay]. Ignored when MaxDelay is zero
	// (keep it zero for deterministic tests: delayed delivery races the
	// writes that follow it, exactly like the real network).
	DelayRate float64
	// MaxDelay bounds injected delivery delay.
	MaxDelay time.Duration
	// FailRate is the probability Write returns ErrChaosWrite instead of
	// sending, simulating a transient socket error (exercises the
	// exporter's reconnect path).
	FailRate float64
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Written    uint64 // Write calls observed
	Delivered  uint64 // datagrams actually passed to the underlying conn
	Dropped    uint64
	Duplicated uint64
	Corrupted  uint64
	Reordered  uint64
	Delayed    uint64
	Failed     uint64 // injected write errors
}

// ErrChaosWrite is the injected transient write failure.
var ErrChaosWrite = errors.New("netflow: chaos-injected write failure")

// chaos RNG stream indices, one independent stream per fault type.
const (
	chaosFail = iota
	chaosDrop
	chaosCorrupt
	chaosReorder
	chaosDup
	chaosDelay
	numChaosStreams
)

// ChaosConn wraps a net.Conn, injecting faults on Write. Reads pass
// through untouched. It is safe for concurrent use.
type ChaosConn struct {
	net.Conn
	cfg ChaosConfig

	mu    sync.Mutex
	rngs  [numChaosStreams]*rand.Rand
	held  [][]byte // reordered datagrams awaiting the next write
	stats ChaosStats
}

// NewChaosConn wraps conn with the configured fault injection.
func NewChaosConn(conn net.Conn, cfg ChaosConfig) *ChaosConn {
	c := &ChaosConn{Conn: conn, cfg: cfg}
	for i := range c.rngs {
		c.rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9E3779B9))
	}
	return c
}

// SetRates replaces the fault probabilities mid-run, leaving the seeded
// RNG streams untouched: a soak harness can ramp loss up and back down
// without perturbing the other fault types' schedules. The Seed field of
// cfg is ignored — the streams keep their construction-time seed.
func (c *ChaosConn) SetRates(cfg ChaosConfig) {
	c.mu.Lock()
	cfg.Seed = c.cfg.Seed
	c.cfg = cfg
	c.mu.Unlock()
}

// roll draws from the fault type's dedicated RNG stream. The draw happens
// even at rate zero so enabling one fault never shifts another's pattern.
func (c *ChaosConn) roll(stream int, rate float64) bool {
	return c.rngs[stream].Float64() < rate
}

// Write applies the fault schedule to one datagram. Faults are decided in
// a fixed order (fail, drop, corrupt, reorder, dup, delay), so a given
// seed yields the same schedule on every run.
func (c *ChaosConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Written++
	if c.roll(chaosFail, c.cfg.FailRate) {
		c.stats.Failed++
		return 0, ErrChaosWrite
	}
	if c.roll(chaosDrop, c.cfg.DropRate) {
		c.stats.Dropped++
		return len(p), c.flushHeldLocked() // the network ate it; held packets still move
	}
	pkt := append([]byte(nil), p...)
	if c.roll(chaosCorrupt, c.cfg.CorruptRate) {
		c.corruptLocked(pkt)
		c.stats.Corrupted++
	}
	if c.roll(chaosReorder, c.cfg.ReorderRate) {
		c.stats.Reordered++
		c.held = append(c.held, pkt)
		return len(p), nil
	}
	dup := c.roll(chaosDup, c.cfg.DupRate)
	delay := c.roll(chaosDelay, c.cfg.DelayRate) && c.cfg.MaxDelay > 0
	if delay {
		d := time.Duration(1 + c.rngs[chaosDelay].Int63n(int64(c.cfg.MaxDelay)))
		c.stats.Delayed++
		if dup {
			c.stats.Duplicated++
		}
		time.AfterFunc(d, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.sendLocked(pkt)
			if dup {
				c.sendLocked(pkt)
			}
		})
		return len(p), nil
	}
	if err := c.sendLocked(pkt); err != nil {
		return 0, err
	}
	if dup {
		c.stats.Duplicated++
		c.sendLocked(pkt) // best effort, like the network duplicating
	}
	return len(p), c.flushHeldLocked()
}

func (c *ChaosConn) sendLocked(pkt []byte) error {
	_, err := c.Conn.Write(pkt)
	if err == nil {
		c.stats.Delivered++
	}
	return err
}

// flushHeldLocked delivers datagrams that were held for reordering.
func (c *ChaosConn) flushHeldLocked() error {
	for len(c.held) > 0 {
		pkt := c.held[0]
		c.held = c.held[1:]
		if err := c.sendLocked(pkt); err != nil {
			return err
		}
	}
	return nil
}

// corruptLocked flips 1–4 random bytes in place.
func (c *ChaosConn) corruptLocked(pkt []byte) {
	if len(pkt) == 0 {
		return
	}
	n := 1 + c.rngs[chaosCorrupt].Intn(4)
	for i := 0; i < n; i++ {
		pos := c.rngs[chaosCorrupt].Intn(len(pkt))
		pkt[pos] ^= byte(1 + c.rngs[chaosCorrupt].Intn(255))
	}
}

// Stats returns a snapshot of injected-fault counters.
func (c *ChaosConn) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close delivers any held datagrams, then closes the underlying conn.
func (c *ChaosConn) Close() error {
	c.mu.Lock()
	flushErr := c.flushHeldLocked()
	c.mu.Unlock()
	closeErr := c.Conn.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// PacketSink consumes raw datagrams attributed to an exporter source.
// *ingest.Pipeline implements it, so a sink conn can bypass the kernel UDP
// stack entirely while exercising the same decode and sequence-tracking
// paths as a socket.
type PacketSink interface {
	HandlePacket(src string, pkt []byte)
}

// NewChaosPipe returns a ChaosConn whose underlying "socket" delivers
// datagrams synchronously to sink, labeled as coming from src. With
// MaxDelay zero the whole transport is deterministic: same seed, same
// faults, same delivery order.
func NewChaosPipe(sink PacketSink, src string, cfg ChaosConfig) *ChaosConn {
	return NewChaosConn(&sinkConn{sink: sink, src: src}, cfg)
}

// sinkConn adapts a PacketSink to net.Conn for in-process transports.
type sinkConn struct {
	mu     sync.Mutex
	sink   PacketSink
	src    string
	closed bool
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	s.sink.HandlePacket(s.src, p)
	return len(p), nil
}

func (s *sinkConn) Read([]byte) (int, error) { return 0, io.EOF }

func (s *sinkConn) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *sinkConn) LocalAddr() net.Addr              { return sinkAddr{name: s.src} }
func (s *sinkConn) RemoteAddr() net.Addr             { return sinkAddr{name: "sink"} }
func (s *sinkConn) SetDeadline(time.Time) error      { return nil }
func (s *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (s *sinkConn) SetWriteDeadline(time.Time) error { return nil }

type sinkAddr struct{ name string }

func (a sinkAddr) Network() string { return "mem" }
func (a sinkAddr) String() string  { return a.name }
