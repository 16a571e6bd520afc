package main

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/simnet"
)

// TestExportStepsSealsEveryStep exports a window through the same loop
// -export runs, over an in-memory pipe into the detector's ingest
// pipeline, and requires one sealed step per customer per exported step,
// each at its simulated time. Exporting on the wall clock would clamp the
// 2019 flow times into one bucket per customer.
func TestExportStepsSealsEveryStep(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Days = 1
	cfg.NumCustomers = 24
	cfg.Step = time.Minute
	w, err := simnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const from, to = 100, 160

	var mu sync.Mutex
	sealed := map[netip.Addr]map[time.Time]bool{}
	pipe, err := ingest.New(ingest.Config{
		DecodeWorkers: 1, AggWorkers: 1, Step: cfg.Step, Lateness: cfg.Step,
		OnStep: func(c netip.Addr, at time.Time, _ []float64, _ []netflow.Record) {
			mu.Lock()
			defer mu.Unlock()
			if sealed[c] == nil {
				sealed[c] = map[time.Time]bool{}
			}
			sealed[c][at] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := netflow.NewChaosPipe(pipe, "ispgen", netflow.ChaosConfig{})
	sent, dropped, err := exportSteps(w, netflow.ExporterConfig{
		Dial: func() (net.Conn, error) { return conn, nil },
	}, 1, 1, from, to, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	st := pipe.Stats()
	if dropped != 0 || st.Records != sent || st.DroppedLate != 0 {
		t.Fatalf("sent %d (%d sampled away), pipeline decoded %d, dropped late %d", sent, dropped, st.Records, st.DroppedLate)
	}
	if want := uint64(cfg.NumCustomers * (to - from)); st.Steps != want {
		t.Fatalf("sealed %d steps, want %d customers × %d steps = %d", st.Steps, cfg.NumCustomers, to-from, want)
	}
	for _, c := range w.Customers {
		for s := from; s < to; s++ {
			if !sealed[c.Addr][cfg.TimeOf(s)] {
				t.Fatalf("customer %v: step %d (%v) never sealed", c.Addr, s, cfg.TimeOf(s))
			}
		}
	}
}
