// Package xatu is a from-scratch Go implementation of "Xatu: Boosting
// Existing DDoS Detection Systems Using Auxiliary Signals" (CoNEXT 2022):
// a multi-timescale LSTM trained with a survival-analysis loss over 273
// volumetric and auxiliary NetFlow features, which raises DDoS alerts
// earlier than the threshold-based commercial detector it boosts while
// keeping scrubbing overhead bounded.
//
// The package re-exports the substrates a deployment needs — the NetFlow
// codec, exporter and ingest pipeline, the feature extractor and its registries
// (blocklists, attack history, spoof checks), the model and its streaming
// form — plus the synthetic ISP world and the full evaluation harness used
// to reproduce every table and figure of the paper. See README.md for a
// tour and DESIGN.md for the architecture.
package xatu

import (
	"io"
	"net"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/cdet"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/eval"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/metrics"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/routing"
	"github.com/xatu-go/xatu/internal/simnet"
	"github.com/xatu-go/xatu/internal/spoof"
)

// Flow records and the NetFlow v5 transport.
type (
	// Record is one unidirectional flow record.
	Record = netflow.Record
	// Proto is an IP protocol number.
	Proto = netflow.Proto
	// Exporter batches records into NetFlow v5 datagrams over UDP.
	Exporter = netflow.Exporter
	// ExporterConfig tunes the exporter's queue bound and reconnect backoff.
	ExporterConfig = netflow.ExporterConfig
	// ExporterStats counts exporter-side shedding and reconnects.
	ExporterStats = netflow.ExporterStats
	// Sampler applies 1:N packet sampling with inversion rescaling.
	Sampler = netflow.Sampler
	// ChaosConfig sets seeded fault-injection rates for a ChaosConn.
	ChaosConfig = netflow.ChaosConfig
	// ChaosConn wraps a net.Conn with deterministic fault injection.
	ChaosConn = netflow.ChaosConn
	// ChaosStats counts injected transport faults.
	ChaosStats = netflow.ChaosStats
	// PacketSink consumes raw datagrams; *IngestPipeline implements it.
	PacketSink = netflow.PacketSink
)

// Protocol numbers.
const (
	ProtoICMP = netflow.ProtoICMP
	ProtoTCP  = netflow.ProtoTCP
	ProtoUDP  = netflow.ProtoUDP
)

// Domain types.
type (
	// AttackType enumerates the six prevalent DDoS attack types.
	AttackType = ddos.AttackType
	// Severity is the coarse attack severity (low/medium/high).
	Severity = ddos.Severity
	// Signature is a CDet-style anomalous-traffic signature.
	Signature = ddos.Signature
	// Alert is one detection event.
	Alert = ddos.Alert
)

// Attack types (Table 2).
const (
	UDPFlood  = ddos.UDPFlood
	TCPACK    = ddos.TCPACK
	TCPSYN    = ddos.TCPSYN
	TCPRST    = ddos.TCPRST
	DNSAmp    = ddos.DNSAmp
	ICMPFlood = ddos.ICMPFlood
)

// Auxiliary-signal registries and the feature extractor.
type (
	// BlocklistRegistry tracks /24-aggregated public blocklists (A1).
	BlocklistRegistry = blocklist.Registry
	// BlocklistCategory labels one of the 11 blocklist categories.
	BlocklistCategory = blocklist.Category
	// HistoryRegistry tracks previous attackers and attack history (A2/A4/A5).
	HistoryRegistry = attackhist.Registry
	// RoutingTable is a longest-prefix-match table for spoof checks.
	RoutingTable = routing.Table
	// SpoofChecker classifies obviously spoofed sources (A3).
	SpoofChecker = spoof.Checker
	// FeatureExtractor computes the 273 features of Table 1.
	FeatureExtractor = features.Extractor
)

// NumFeatures is the model input width (Table 1).
const NumFeatures = features.NumFeatures

// NewBlocklistRegistry returns an empty blocklist registry.
func NewBlocklistRegistry() *BlocklistRegistry { return blocklist.NewRegistry() }

// NewHistoryRegistry returns an empty attack-history registry.
func NewHistoryRegistry() *HistoryRegistry { return attackhist.NewRegistry() }

// NewSpoofChecker returns a spoof classifier over the routing table.
func NewSpoofChecker(t *RoutingTable) *SpoofChecker { return spoof.NewChecker(t) }

// The model.
type (
	// Model is the multi-timescale LSTM with survival-analysis head.
	Model = core.Model
	// ModelConfig parameterizes a Model.
	ModelConfig = core.Config
	// Example is one training series.
	Example = core.Example
	// TrainOptions tunes Model.Fit.
	TrainOptions = core.TrainOptions
	// Stream is the incremental online form of a Model.
	Stream = core.Stream
)

// DefaultModelConfig returns a laptop-scale model configuration for the
// standard 273-feature input.
func DefaultModelConfig() ModelConfig { return core.DefaultConfig(features.NumFeatures) }

// NewModel builds a model with fresh weights.
func NewModel(cfg ModelConfig) (*Model, error) { return core.New(cfg) }

// LoadModel reads a model saved with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// NewStream returns an online detector state for the model.
func NewStream(m *Model) *Stream { return core.NewStream(m) }

// MissingPolicy selects what detector streams consume for steps with no
// telemetry (zero-fill or carry-forward).
type MissingPolicy = core.MissingPolicy

// Missing-telemetry policies.
const (
	// MissingZero feeds an all-zero feature vector for a missing step.
	MissingZero = core.MissingZero
	// MissingCarry repeats the last real feature vector.
	MissingCarry = core.MissingCarry
)

// RestoreStream reads a stream checkpoint (written by Stream.Checkpoint)
// into a fresh online state over m.
func RestoreStream(r io.Reader, m *Model) (*Stream, error) { return core.RestoreStream(r, m) }

// Precision selects the serving kernel arithmetic of a monitor's detector
// streams: float64 (training precision, the zero value) or float32 (the
// quantized panel kernels — several-fold faster, alert behavior held
// within the calibrated tolerance; DESIGN.md §14).
type Precision = core.Precision

// Serving precisions.
const (
	// PrecisionFloat64 serves with the training-precision kernels.
	PrecisionFloat64 = core.PrecisionFloat64
	// PrecisionFloat32 serves with quantized float32 panel kernels.
	PrecisionFloat32 = core.PrecisionFloat32
)

// ParsePrecision parses a -precision flag value ("float32"/"f32"/"32" or
// "float64"/"f64"/"64").
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// Commercial-detector baselines.
type (
	// CDetDetector is a threshold-based volumetric detector.
	CDetDetector = cdet.Detector
	// CDetParams tunes a threshold detector.
	CDetParams = cdet.Params
)

// Simulation world (the ISP substrate).
type (
	// World is a synthetic ISP with customers, botnets and attack campaigns.
	World = simnet.World
	// WorldConfig parameterizes a World.
	WorldConfig = simnet.Config
	// AttackEvent is one scheduled ground-truth attack.
	AttackEvent = simnet.AttackEvent
)

// DefaultWorldConfig returns a laptop-scale world.
func DefaultWorldConfig() WorldConfig { return simnet.DefaultConfig() }

// NewWorld builds a deterministic synthetic ISP.
func NewWorld(cfg WorldConfig) (*World, error) { return simnet.NewWorld(cfg) }

// Evaluation harness (the paper's experiments).
type (
	// Pipeline wires world, labels, features, and training together.
	Pipeline = eval.Pipeline
	// PipelineConfig parameterizes a Pipeline.
	PipelineConfig = eval.Config
	// MLContext caches trained systems for the ML experiments.
	MLContext = eval.MLContext
	// ExperimentResult is a rendered experiment table.
	ExperimentResult = eval.Result
	// Episode is one labeled attack window matched between ground truth
	// and CDet labels (used by the chaos/soak harnesses for per-episode
	// detection-delay accounting).
	Episode = eval.Episode
	// AttackOutcome is the per-attack metric accounting.
	AttackOutcome = metrics.AttackOutcome
)

// DefaultPipelineConfig returns the laptop-scale experiment configuration.
func DefaultPipelineConfig() PipelineConfig { return eval.DefaultConfig() }

// NewPipeline builds a world, labels it with the configured CDet and
// prepares the registries.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return eval.New(cfg) }

// NewMLContext trains Xatu and the RF baseline over the pipeline.
func NewMLContext(p *Pipeline) (*MLContext, error) { return eval.NewMLContext(p) }

// Parallel ingest (packet → records → step batches → features → engine).
type (
	// IngestPipeline is the parallel allocation-lean ingest worker mesh:
	// NetFlow v5 datagrams in, per-customer sealed steps out, with
	// per-exporter and per-customer ordering preserved across workers.
	IngestPipeline = ingest.Pipeline
	// IngestConfig assembles an IngestPipeline.
	IngestConfig = ingest.Config
	// IngestStats is a snapshot of the pipeline's counters.
	IngestStats = ingest.Stats
	// IngestStepFunc consumes one sealed (customer, step) bucket.
	IngestStepFunc = ingest.StepFunc
)

// NewIngestPipeline validates cfg and starts the ingest workers.
func NewIngestPipeline(cfg IngestConfig) (*IngestPipeline, error) { return ingest.New(cfg) }

// NewExporter dials a NetFlow v5 collector; sampling is the advertised 1:N
// sampling interval.
func NewExporter(addr string, sampling uint16) (*Exporter, error) {
	return netflow.NewExporter(addr, sampling)
}

// NewExporterWithConfig dials a NetFlow v5 collector with explicit
// queue-bound, backoff and dialer settings.
func NewExporterWithConfig(cfg ExporterConfig) (*Exporter, error) {
	return netflow.NewExporterWithConfig(cfg)
}

// NewChaosConn wraps a net.Conn with seeded fault injection (loss,
// duplication, reordering, corruption, delay, write failures).
func NewChaosConn(conn net.Conn, cfg ChaosConfig) *ChaosConn {
	return netflow.NewChaosConn(conn, cfg)
}

// NewChaosPipe builds a deterministic in-memory chaos transport delivering
// datagrams synchronously into sink (for example an *IngestPipeline),
// attributed to the exporter source src.
func NewChaosPipe(sink PacketSink, src string, cfg ChaosConfig) *ChaosConn {
	return netflow.NewChaosPipe(sink, src, cfg)
}
