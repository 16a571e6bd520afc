package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"github.com/xatu-go/xatu"
	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/eval"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/simnet"
)

// shape is the input property set a workload varies.
type shape struct {
	Customers   int     // protected customers in the serving world
	Botnets     int     // attacker pools; each preys on 1–4 customers
	BenignFlows int     // benign flow records per customer per step
	AttacksPerW float64 // campaign waves per botnet per week
	// HistoryWork sizes the attack history the replay starts from:
	// customers with history × (customer, attacker) pairs.
	HistoryWork int
	// RecordHistory feeds the engine's own alerts back into attack
	// history (the xatu-detect default); off freezes history (xatu-node).
	RecordHistory bool
	// ReplaySteps is the number of world steps one repetition replays.
	ReplaySteps int
}

type workload struct {
	name, why string
	shape
}

// workloads are chosen so that each stresses a different layer; the
// shapes come from sizing runs on a 2-core machine.
var workloads = []workload{
	{
		name: "aux-heavy",
		why:  "200 customers, frozen history on ~48 of them (~3.8k attacker pairs): A5 clustering in attackhist does most of the work",
		shape: shape{Customers: 200, Botnets: 60, BenignFlows: 8, AttacksPerW: 28,
			HistoryWork: 180000, RecordHistory: false, ReplaySteps: 24},
	},
	{
		name: "flow-heavy",
		why:  "24 customers, ~96 benign flows per step, history on ~2 customers: decode, aggregation, volumetric extraction and per-flow lookups dominate",
		shape: shape{Customers: 24, Botnets: 2, BenignFlows: 96, AttacksPerW: 7,
			HistoryWork: 300, RecordHistory: false, ReplaySteps: 160},
	},
	{
		name: "history-feedback",
		why:  "50 customers with RecordHistory on: attackhist writes beside reads, history grows during the run, cross-shard ordering shows as alert divergence",
		shape: shape{Customers: 50, Botnets: 15, BenignFlows: 8, AttacksPerW: 28,
			HistoryWork: 15000, RecordHistory: true, ReplaySteps: 80},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	worldStep    = 2 * time.Minute
	servingDays  = 2
	trainingDays = 4
	// trainingSeed fixes the training world: the model and its calibrated
	// threshold are part of the system under test, not of the workload, so
	// every workload seed runs the same detector.
	trainingSeed = 2
	// overheadBound is the scrubbing-overhead bound the alert threshold is
	// calibrated at (the eval pipeline's default operating point).
	overheadBound = 0.4
	shards        = 2
	a4Window      = 3 * 24 * time.Hour
	a5Window      = 24 * time.Hour
)

// trained is the detection model the serving path runs.
type trained struct {
	models    map[ddos.AttackType]*core.Model
	shared    *core.Model
	threshold float64 // survival threshold: alert when S < threshold
}

// inputs are the replay's pre-generated flow records, in export order.
type inputs struct {
	t0    time.Time        // start of the first replayed step
	recs  []netflow.Record // every record, step by step
	steps int              // replayed world steps
	// stepEnd[k] is the end offset in recs of world step k's records.
	stepEnd []int
	// custIdx maps a customer address to its index; expected[ci*steps+k]
	// is the record count of customer ci's step k (0 = no step).
	custIdx  map[netip.Addr]int
	expected []int32
	// stepKeys is the number of non-empty (customer, step) pairs: the
	// steps one repetition attempts.
	stepKeys int
}

// stepIndex maps a customer and step start to the dense accounting slot,
// or -1 when the pair lies outside the replay.
func (in *inputs) stepIndex(customer netip.Addr, at time.Time) int {
	ci, ok := in.custIdx[customer]
	k := int(at.Sub(in.t0) / worldStep)
	if !ok || at.Before(in.t0) || k >= in.steps {
		return -1
	}
	return ci*in.steps + k
}

// sut is the system under test plus everything needed to rebuild it.
type sut struct {
	wl      workload
	world   *simnet.World
	history *attackhist.Registry // state before the replay (never mutated)
	model   trained
	in      *inputs
	// heapBase is the live heap before the history and model were built,
	// with the inputs already resident.
	heapBase uint64
	times    setupTimes
	first    *system // the system built during set-up, used by repetition 0
}

type setupTimes struct {
	world, history, train, build time.Duration
}

func (t setupTimes) total() time.Duration { return t.world + t.history + t.train + t.build }

// setup builds the serving world and its inputs, the pre-replay history,
// the trained and calibrated model, and a first engine and pipeline.
func setup(wl workload, seed int64) (*sut, error) {
	s := &sut{wl: wl}

	t := time.Now()
	serving, err := eval.New(servingConfig(wl.shape, seed))
	if err != nil {
		return nil, fmt.Errorf("serving world: %w", err)
	}
	s.times.world = time.Since(t)
	s.world = serving.World
	replayStart := serving.Cfg.World.Steps() - wl.ReplaySteps
	s.in, err = makeInputs(serving.World, replayStart, wl.ReplaySteps)
	if err != nil {
		return nil, err
	}
	// Only the world and the labeler's alerts are kept: the pipeline's
	// own history spans the whole horizon, replay included.
	alerts := serving.Alerts
	s.heapBase = liveHeap()

	t = time.Now()
	s.history = historyBefore(s.world, alerts, replayStart, wl.HistoryWork)
	s.times.history = time.Since(t)

	t = time.Now()
	s.model, err = train()
	if err != nil {
		return nil, err
	}
	s.times.train = time.Since(t)

	t = time.Now()
	s.first, err = s.build(false)
	if err != nil {
		return nil, err
	}
	s.times.build = time.Since(t)
	return s, nil
}

// servingConfig is the world the replay draws from. Only its last
// ReplaySteps steps are replayed; the steps before them feed the labeler
// that builds attack history.
func servingConfig(sh shape, seed int64) eval.Config {
	cfg := xatu.BenchPipelineConfig(servingDays, seed)
	cfg.World.NumCustomers = sh.Customers
	cfg.World.NumBotnets = sh.Botnets
	cfg.World.BenignFlowsPerStep = sh.BenignFlows
	cfg.World.MeanAttacksPerBotnetPerWeek = sh.AttacksPerW
	cfg.World.Step = worldStep
	return cfg
}

// trainingConfig is the fixed world the model is trained and calibrated
// on.
func trainingConfig() eval.Config {
	cfg := xatu.BenchPipelineConfig(trainingDays, trainingSeed)
	cfg.World.Step = worldStep
	cfg.Train.Epochs = 6
	return cfg
}

// train fits per-type models plus the shared fallback on the training
// world and calibrates the alert threshold on its validation split, as
// the eval pipeline does.
func train() (trained, error) {
	p, err := eval.New(trainingConfig())
	if err != nil {
		return trained{}, fmt.Errorf("training world: %w", err)
	}
	ex := p.Extractor(nil, nil)
	set, err := p.BuildExamples(ex, 0, p.TrainEnd, 1)
	if err != nil {
		return trained{}, err
	}
	models, err := p.TrainXatu(set, nil)
	if err != nil {
		return trained{}, err
	}
	eps := p.MatchedEpisodes(p.TrainEnd, p.ValEnd)
	eps = append(eps, p.NegativeEpisodes(2*max(1, len(eps)), p.TrainEnd, p.ValEnd, 2)...)
	th, err := p.Calibrate(p.TraceEpisodes(ex, eps, models.XatuScorer), overheadBound)
	if err != nil {
		return trained{}, fmt.Errorf("calibration: %w", err)
	}
	if !(th > 0 && th < 1) {
		return trained{}, fmt.Errorf("calibration gave score threshold %v outside (0, 1)", th)
	}
	return trained{models: models.ByType, shared: models.Shared, threshold: 1 - th}, nil
}

// historyBefore populates attack history the way the eval pipeline
// does — each labeler alert, plus the sources of signature-matching
// traffic between its detection and its mitigation end — from the alerts
// detected before the replay, newest first, until customers with history
// × (customer, attacker) pairs reaches work. A5 clustering scans every
// pair for every customer with recent attackers, so this product sets the
// per-step A5 work; attack schedules are heavy-tailed, so fixing the
// history's time span or its pair count instead lets that work vary
// several-fold between seeds.
func historyBefore(w *simnet.World, alerts []ddos.Alert, replayStart, work int) *attackhist.Registry {
	reg := attackhist.NewRegistry()
	end := w.Cfg.TimeOf(replayStart)
	type pair struct{ customer, src netip.Addr }
	seen := map[pair]bool{}
	victims := map[netip.Addr]bool{}
	for i := len(alerts) - 1; i >= 0 && len(victims)*len(seen) < work; i-- {
		a := alerts[i]
		if !a.DetectedAt.Before(end) {
			continue
		}
		reg.RecordAlert(a)
		ci := w.CustomerIndex(a.Sig.Victim)
		if ci < 0 {
			continue
		}
		to := min(w.Cfg.StepOf(a.MitigatedAt), replayStart-1)
		for st := w.Cfg.StepOf(a.DetectedAt); st <= to; st++ {
			at := w.Cfg.TimeOf(st)
			for _, r := range w.FlowsAt(ci, st) {
				if a.Sig.Matches(r) {
					reg.RecordAttacker(a.Sig.Victim, r.Src, at)
					seen[pair{a.Sig.Victim, r.Src}] = true
					victims[a.Sig.Victim] = true
				}
			}
		}
	}
	return reg
}

// makeInputs generates the replay's records: world steps [from, from+n),
// every customer's flows per step, in customer order.
func makeInputs(w *simnet.World, from, n int) (*inputs, error) {
	if from < 1 {
		return nil, fmt.Errorf("replay of %d steps leaves no history window", n)
	}
	in := &inputs{
		t0:       w.Cfg.TimeOf(from),
		steps:    n,
		custIdx:  make(map[netip.Addr]int, len(w.Customers)),
		expected: make([]int32, len(w.Customers)*n),
	}
	for ci := range w.Customers {
		in.custIdx[w.Customers[ci].Addr] = ci
	}
	for k := 0; k < n; k++ {
		for ci := range w.Customers {
			in.recs = append(in.recs, w.FlowsAt(ci, from+k)...)
		}
		in.stepEnd = append(in.stepEnd, len(in.recs))
	}
	for i := range in.recs {
		r := &in.recs[i]
		slot := in.stepIndex(r.Dst, r.Start.Truncate(worldStep))
		if slot < 0 {
			return nil, fmt.Errorf("generated record for %v at %v lies outside the replay", r.Dst, r.Start)
		}
		if in.expected[slot] == 0 {
			in.stepKeys++
		}
		in.expected[slot]++
	}
	return in, nil
}

// extractor returns a feature extractor over the serving world's
// registries and the given attack history, configured as the eval
// pipeline configures it.
func (s *sut) extractor(hist *attackhist.Registry) *features.Extractor {
	return &features.Extractor{
		Blocklists: s.world.Blocklists,
		History:    hist,
		Spoof:      s.world.Spoof,
		Geo:        simnet.GeoOf,
		A4Window:   a4Window,
		A5Window:   a5Window,
	}
}

// runHistory returns the history one replay starts from: the shared
// frozen registry, or a private copy when the replay writes to it.
func (s *sut) runHistory() *attackhist.Registry {
	if s.wl.RecordHistory {
		return s.history.Clone()
	}
	return s.history
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
