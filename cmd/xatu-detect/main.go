// Command xatu-detect runs the online detection loop of §2.6: it listens
// for NetFlow v5 datagrams, seals per-customer steps by record event time
// in the parallel ingest pipeline, feeds them through a sharded detection
// Engine (trained models + 273-feature extractor, one single-threaded
// Monitor per shard) and prints alerts. Pair it with ispgen, whose world
// steps are one minute:
//
//	xatu-detect -models ./models -listen 127.0.0.1:2055 -step 1m -shards 4 &
//	ispgen -export 127.0.0.1:2055 -from 0 -to 720 -rate 10ms
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"time"

	"github.com/xatu-go/xatu"
	"github.com/xatu-go/xatu/internal/netflow"
)

func main() {
	var (
		modelDir = flag.String("models", "models", "directory written by xatu-train")
		listen   = flag.String("listen", "127.0.0.1:2055", "NetFlow listen address")
		step     = flag.Duration("step", 2*time.Minute, "event-time step: live ingest seals per-customer steps of this length by record time, and -replay buckets journal records by it (xatu-train's world step is 2m, ispgen's 1m)")
		thFlag   = flag.Float64("threshold", 0, "survival threshold override (0 = use saved)")
		replay   = flag.String("replay", "", "replay a flow journal file instead of listening on UDP")
		ckpt     = flag.String("checkpoint", "", "detector state file: restored on startup if present, saved periodically and on shutdown")
		ckptIval = flag.Duration("checkpoint-interval", time.Minute, "how often to save -checkpoint")
		ckptInc  = flag.Bool("checkpoint-incremental", true, "periodic saves read the supervisor's background per-shard snapshots instead of stalling the fleet at a barrier (shutdown still writes a barrier checkpoint)")
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "detection shards (single-threaded monitors); customers are hash-partitioned across them")
		queue    = flag.Int("queue", 1024, "per-shard mailbox capacity (live ingest sheds oldest on overflow; replay blocks)")
		telAddr  = flag.String("telemetry-addr", "", "serve Prometheus /metrics, /healthz, /debug/alerts and pprof on this address (empty = disabled)")
		ingestW  = flag.Int("ingest-workers", 0, "ingest pipeline decode and aggregation workers each (0 = GOMAXPROCS)")
		lateness = flag.Duration("lateness", 2*time.Minute, "how far out of order records may arrive before a step seals without them")
		precFlag = flag.String("precision", "float32", "serving kernel precision: float32 (quantized panel kernels) or float64 (training precision)")
	)
	flag.Parse()

	b, err := xatu.LoadBundle(*modelDir)
	if err != nil {
		fatal("%v", err)
	}
	for _, name := range b.Missing {
		fmt.Fprintf(os.Stderr, "warning: no %s in %s; the signals it feeds start empty\n", name, *modelDir)
	}
	threshold := b.Threshold
	if *thFlag != 0 {
		threshold = *thFlag
	}
	precision, err := xatu.ParsePrecision(*precFlag)
	if err != nil {
		fatal("%v", err)
	}

	// Live ingest sheds oldest rather than blocking the pipeline's
	// aggregation workers; a journal replay has no liveness constraint,
	// so it blocks and loses nothing.
	policy := xatu.BackpressureShedOldest
	if *replay != "" {
		policy = xatu.BackpressureBlock
	}
	var reg *xatu.TelemetryRegistry
	if *telAddr != "" {
		reg = xatu.NewTelemetryRegistry()
	}
	eng, err := xatu.NewEngine(xatu.EngineConfig{
		Monitor: xatu.MonitorConfig{
			Models: b.Models, Default: b.Default, Extractor: b.Extractor,
			Threshold: threshold, RecordHistory: true, Precision: precision,
		},
		Shards:    *shards,
		Queue:     *queue,
		Policy:    policy,
		Step:      *step,
		Telemetry: reg,
	})
	if err != nil {
		fatal("%v", err)
	}
	var tsrv *xatu.TelemetryServer
	if reg != nil {
		tsrv, err = xatu.NewTelemetryServer(*telAddr, reg, func() xatu.TelemetryHealth {
			h := eng.Health()
			return xatu.TelemetryHealth{OK: h.OK, Detail: h}
		})
		if err != nil {
			fatal("telemetry: %v", err)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", tsrv.Addr())
	}

	if *ckpt != "" {
		if f, err := os.Open(*ckpt); err == nil {
			err := eng.Restore(f)
			f.Close()
			if err != nil {
				fatal("restoring %s: %v", *ckpt, err)
			}
			fmt.Printf("restored detector state from %s\n", *ckpt)
		} else if !os.IsNotExist(err) {
			fatal("%v", err)
		}
	}

	// All alerts, live or replayed, fan into one channel.
	alertsDone := make(chan struct{})
	go func() {
		defer close(alertsDone)
		for ev := range eng.Alerts() {
			fmt.Printf("%s ALERT %s victim=%v proto=%v srcport=%d shard=%d\n",
				ev.At.Format(time.RFC3339), ev.Alert.Sig.Type, ev.Alert.Sig.Victim,
				ev.Alert.Sig.Proto, ev.Alert.Sig.SrcPort, ev.Shard)
			if ev.Trace != nil {
				if data, err := json.Marshal(ev.Trace); err == nil {
					fmt.Printf("  trace %s\n", data)
				}
				if tsrv != nil {
					tsrv.Alerts().Add(ev.Trace)
				}
			}
		}
	}()

	if *replay != "" {
		replayJournal(eng, *replay, *step)
		saveCheckpoint(eng, *ckpt, false)
	} else {
		fmt.Printf("survival threshold %.4f, step %v, lateness %v, %d shards (queue %d)\n",
			threshold, *step, *lateness, eng.Shards(), *queue)
		serve(eng, reg, *listen, *ingestW, *step, *lateness, *ckpt, *ckptIval, *ckptInc)
	}
	printHealthSummary(eng)
	eng.Close()
	<-alertsDone
}

// serve runs live ingest through the parallel ingest pipeline until
// interrupted: decode workers partition packets by exporter, aggregation
// workers seal per-customer steps by record event time once the watermark
// passes the lateness allowance, and sealed steps feed the engine's shards
// directly. On shutdown it flushes the open steps and writes a barrier
// checkpoint.
func serve(eng *xatu.Engine, reg *xatu.TelemetryRegistry, listen string, workers int, step, lateness time.Duration, ckpt string, ckptIval time.Duration, ckptInc bool) {
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		fatal("%v", err)
	}
	pipe, err := xatu.NewIngestPipeline(xatu.IngestConfig{
		DecodeWorkers: workers,
		AggWorkers:    workers,
		Step:          step,
		Lateness:      lateness,
		Engine:        eng,
		Telemetry:     reg,
	})
	if err != nil {
		fatal("%v", err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	fmt.Printf("listening on %s\n", pc.LocalAddr())

	serveDone := make(chan error, 1)
	go func() { serveDone <- pipe.Serve(ctx, pc) }()
	ticker := time.NewTicker(ckptIval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			saveCheckpoint(eng, ckpt, ckptInc)
		case err := <-serveDone:
			if err != nil {
				fmt.Fprintf(os.Stderr, "xatu-detect: serve: %v\n", err)
			}
			if cerr := pipe.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "xatu-detect: %v\n", cerr)
			}
			st := pipe.Stats()
			es := eng.Stats()
			fmt.Printf("shutting down (packets=%d records=%d steps=%d dup=%d reordered=%d lost=%d late=%d bad=%d exporters=%d)\n",
				st.Packets, st.Records, st.Steps, st.DupPackets, st.ReorderedPackets, st.LostRecords, st.DroppedLate, st.BadPackets, st.Exporters)
			fmt.Printf("engine: %d shards, steps=%d missing=%d shed=%d alerts=%d queue-hw=%d\n",
				eng.Shards(), es.Steps, es.Missing, es.Shed, es.Alerts, es.QueueHighWater)
			saveCheckpoint(eng, ckpt, false)
			return
		}
	}
}

// saveCheckpoint writes the multi-shard state atomically (tmp + rename),
// so a crash mid-save never corrupts the previous checkpoint. A barrier
// save (incremental=false) drains the fleet for a globally consistent
// cut; an incremental save reads the supervisor's background per-shard
// snapshots without stalling ingest, at the cost of each shard's state
// being up to the engine's snapshot interval old.
func saveCheckpoint(eng *xatu.Engine, path string, incremental bool) {
	if path == "" {
		return
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xatu-detect: checkpoint: %v\n", err)
		return
	}
	if incremental {
		err = eng.CheckpointIncremental(f)
	} else {
		err = eng.Checkpoint(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		fmt.Fprintf(os.Stderr, "xatu-detect: checkpoint: %v\n", err)
		return
	}
	fmt.Printf("checkpointed detector state to %s\n", path)
}

// printHealthSummary reports the supervisor's view of the run: panics
// absorbed, WAL replay and bounded loss, background snapshots, and every
// degradation transition the health machine went through.
func printHealthSummary(eng *xatu.Engine) {
	es := eng.Stats()
	if es.Restarts == 0 && es.Lost == 0 && len(eng.Transitions()) == 0 && es.Health == xatu.EngineHealthy {
		return // nothing noteworthy happened; keep shutdown output quiet
	}
	fmt.Printf("self-healing: health=%s restarts=%d quarantined=%d wal-replayed=%d wal-dropped=%d lost=%d bypassed=%d snapshots=%d recovery=%v\n",
		es.Health, es.Restarts, es.Quarantined, es.WALReplayed, es.WALDropped, es.Lost, es.Bypassed, es.Snapshots, es.RecoveryTotal)
	if es.HealthCause != "" {
		fmt.Printf("  cause: %s\n", es.HealthCause)
	}
	for _, tr := range eng.Transitions() {
		fmt.Printf("  %s: %s -> %s (%s)\n", tr.At.Format(time.RFC3339), tr.From, tr.To, tr.Cause)
	}
}

// replayJournal streams a recorded flow journal through the engine,
// bucketing records into simulated steps by their start timestamps.
func replayJournal(eng *xatu.Engine, path string, step time.Duration) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	jr, err := netflow.NewJournalReader(f)
	if err != nil {
		fatal("%v", err)
	}
	var (
		curStep time.Time
		pending = map[netip.Addr][]xatu.Record{}
		flushFn = func() {
			for customer, flows := range pending {
				if err := eng.Submit(customer, curStep, flows); err != nil {
					fatal("replay: %v", err)
				}
				delete(pending, customer)
			}
		}
	)
	for {
		r, err := jr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal("replay: %v", err)
		}
		bucket := r.Start.Truncate(step)
		if curStep.IsZero() {
			curStep = bucket
		}
		for bucket.After(curStep) {
			flushFn()
			curStep = curStep.Add(step)
		}
		pending[r.Dst] = append(pending[r.Dst], r)
	}
	flushFn()
	if err := eng.Drain(); err != nil {
		fatal("replay: %v", err)
	}
	fmt.Printf("replayed %d records, %d alerts across %d shards\n",
		jr.Count(), eng.Stats().Alerts, eng.Shards())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-detect: "+format+"\n", args...)
	os.Exit(1)
}
