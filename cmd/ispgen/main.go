// Command ispgen generates a synthetic ISP world and either prints a
// summary of its traffic and attack schedule or exports the flow records of
// a time range as NetFlow v5 datagrams to a collector (see xatu-detect,
// run with -step 1m to match the default one-minute world step).
//
// Usage:
//
//	ispgen -days 5 -summary
//	ispgen -export 127.0.0.1:2055 -from 0 -to 1440 -sample 10
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/simnet"
)

func main() {
	var (
		days      = flag.Int("days", 5, "simulated days")
		seed      = flag.Int64("seed", 1, "world seed")
		customers = flag.Int("customers", 10, "number of customers")
		stepMin   = flag.Int("step", 1, "step minutes")
		summary   = flag.Bool("summary", false, "print world summary and exit")
		export    = flag.String("export", "", "collector address to export NetFlow v5 to")
		journal   = flag.String("journal", "", "write flow records to a journal file instead of exporting")
		from      = flag.Int("from", 0, "first step to export")
		to        = flag.Int("to", 360, "exclusive last step to export")
		sample    = flag.Int("sample", 1, "1:N packet sampling before export")
		rate      = flag.Duration("rate", 0, "pause between exported steps (0 = as fast as possible)")
	)
	flag.Parse()

	cfg := simnet.DefaultConfig()
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.NumCustomers = *customers
	cfg.Step = time.Duration(*stepMin) * time.Minute
	w, err := simnet.NewWorld(cfg)
	if err != nil {
		fatal("%v", err)
	}

	if *summary || (*export == "" && *journal == "") {
		printSummary(w)
		if *export == "" && *journal == "" {
			return
		}
	}
	if *to > cfg.Steps() {
		*to = cfg.Steps()
	}
	if *journal != "" {
		writeJournal(w, *journal, *from, *to)
		return
	}

	sent, dropped, err := exportSteps(w, netflow.ExporterConfig{Addr: *export}, *sample, *seed, *from, *to, *rate)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("exported %d flow records (%d sampled away) for steps [%d,%d) to %s\n",
		sent, dropped, *from, *to, *export)
}

// exportSteps exports every customer's flows for steps [from, to) through
// an exporter built from cfg, after 1:sample packet sampling, flushing once
// per step and pausing rate between steps. It exports on the record clock
// (BootTime one step before the first exported step), so the datagrams
// carry the simulated flow times that an event-time consumer such as the
// detector's ingest pipeline seals steps by; the exporter's live mode would
// clamp them all into the last wall-clock minute.
func exportSteps(w *simnet.World, cfg netflow.ExporterConfig, sample int, seed int64, from, to int, rate time.Duration) (sent, dropped uint64, err error) {
	cfg.Sampling = uint16(sample)
	cfg.BootTime = w.Cfg.TimeOf(from).Add(-w.Cfg.Step)
	exp, err := netflow.NewExporterWithConfig(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer exp.Close()
	sampler := netflow.NewSampler(sample, rand.New(rand.NewSource(seed)))
	for s := from; s < to; s++ {
		for ci := range w.Customers {
			for _, r := range w.FlowsAt(ci, s) {
				out, ok := sampler.Sample(r)
				if !ok {
					dropped++
					continue
				}
				if err := exp.Export(out); err != nil {
					return sent, dropped, fmt.Errorf("export: %w", err)
				}
				sent++
			}
		}
		if err := exp.Flush(); err != nil {
			return sent, dropped, fmt.Errorf("flush: %w", err)
		}
		if rate > 0 {
			time.Sleep(rate)
		}
	}
	return sent, dropped, exp.Close()
}

// writeJournal persists flows for steps [from, to) to a journal file.
func writeJournal(w *simnet.World, path string, from, to int) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	jw, err := netflow.NewJournalWriter(f)
	if err != nil {
		fatal("%v", err)
	}
	for s := from; s < to; s++ {
		for ci := range w.Customers {
			for _, r := range w.FlowsAt(ci, s) {
				if err := jw.Write(r); err != nil {
					fatal("journal: %v", err)
				}
			}
		}
	}
	if err := jw.Flush(); err != nil {
		fatal("journal: %v", err)
	}
	fmt.Printf("wrote %d flow records for steps [%d,%d) to %s\n", jw.Count(), from, to, path)
}

func printSummary(w *simnet.World) {
	fmt.Println(w)
	byType := map[string]int{}
	for i := range w.Events {
		byType[w.Events[i].Type.String()]++
	}
	fmt.Printf("attack schedule: %d events: %v\n", len(w.Events), byType)
	if len(w.Events) > 0 {
		ev := &w.Events[0]
		fmt.Printf("first attack: %v on %v at step %d (%.1f Mbps peak, %d steps, %d prep days)\n",
			ev.Type, ev.Victim, ev.StartStep, ev.PeakMbps, ev.DurSteps, ev.PrepDays)
	}
	sizes := w.Blocklists.Size()
	total := 0
	for _, n := range sizes {
		total += n
	}
	fmt.Printf("blocklists: %d listed /24s across 11 categories\n", total)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ispgen: "+format+"\n", args...)
	os.Exit(1)
}
