// Package iprune is an intermittent-aware neural network pruning toolkit:
// a Go reproduction of "Intermittent-Aware Neural Network Pruning"
// (Lin et al., DAC 2023).
//
// Battery-less devices running DNN inference on harvested energy must
// preserve every accelerator output to nonvolatile memory so progress
// survives power failures; the resulting NVM writes, not MACs or reads,
// dominate inference latency. iPrune therefore prunes by a criterion that
// counts accelerator outputs, removing weight blocks at exactly the
// granularity of one accelerator operation so pruned blocks disappear
// from the operation schedule.
//
// The package exposes the complete stack built for the reproduction:
//
//   - training (nn substrate) and the three TinyML models of the paper;
//   - synthetic datasets standing in for CIFAR-10 / HAR / speech commands;
//   - the tiling/cost model that counts accelerator outputs (the pruning
//     criterion) and NVM traffic;
//   - iterative three-step pruning (iPrune) plus the energy-aware ePrune
//     comparison and ablation criteria;
//   - Q15 quantization and BSR block-sparse deployment;
//   - the HAWAII⁺ intermittent inference engine: a functional simulator
//     with job-counter progress preservation/recovery, and an
//     event-driven latency/energy simulator with an MSP430FR5994-class
//     device profile and a capacitor-buffered harvesting supply.
//
// Quick start:
//
//	net, _ := iprune.BuildModel("HAR", 1)
//	ds := iprune.HARData(iprune.DataConfig{Train: 192, Test: 96, Noise: 0.35}, 1)
//	iprune.TrainSGD(net, ds.Train, 8, 0.005, 1)
//	res, _ := iprune.Prune(net, ds.Train, ds.Test, iprune.DefaultPruneOptions())
//	before, _ := iprune.Simulate(net, iprune.StrongPower, 1)
//	after, _ := iprune.Simulate(res.Net, iprune.StrongPower, 1)
//	fmt.Printf("speedup %.2fx\n", before.Latency/after.Latency)
package iprune

import (
	"context"
	"io"
	"math/rand"
	"os"

	"iprune/internal/compress"
	"iprune/internal/core"
	"iprune/internal/dataset"
	"iprune/internal/device"
	"iprune/internal/energy"
	"iprune/internal/hawaii"
	"iprune/internal/models"
	"iprune/internal/nn"
	"iprune/internal/obs"
	"iprune/internal/pool"
	"iprune/internal/power"
	"iprune/internal/quant"
	"iprune/internal/tensor"
	"iprune/internal/tile"
)

// Re-exported foundation types. The aliases make the internal packages'
// documented types part of the public API without duplicating them.
type (
	// Network is a trainable DNN (see the nn layer types for building
	// custom architectures).
	Network = nn.Network
	// Sample is one labelled input.
	Sample = nn.Sample
	// Dataset is a generated train/test split.
	Dataset = dataset.Dataset
	// DataConfig sizes a generated dataset.
	DataConfig = dataset.Config
	// PruneOptions tunes the iterative pruning loop.
	PruneOptions = core.Options
	// PruneResult is the outcome of a pruning run.
	PruneResult = core.Result
	// Criterion scores layers for pruning-ratio allocation.
	Criterion = core.Criterion
	// Supply is a power operating point.
	Supply = power.Supply
	// SimResult is a simulated end-to-end inference outcome.
	SimResult = hawaii.Result
	// EngineConfig is the inference-engine tiling configuration.
	EngineConfig = tile.Config
	// DeviceProfile is the hardware latency/energy model.
	DeviceProfile = device.Profile
	// Tracer receives typed observability events from the simulators
	// (see internal/obs for the event model).
	Tracer = obs.Tracer
	// TraceEvent is one typed observability event.
	TraceEvent = obs.Event
	// TraceRecorder records emitted events in memory for export.
	TraceRecorder = obs.Recorder
	// TraceStreamer encodes events straight to an io.Writer as Chrome
	// trace JSON in O(1) event memory (see NewTraceStreamer).
	TraceStreamer = obs.StreamTracer
	// TraceDiff is the typed cross-run comparison of two RunStats.
	TraceDiff = obs.StatsDiff
	// RunStats is the per-layer / per-power-cycle aggregation of a
	// recorded run.
	RunStats = obs.RunStats
	// Metrics is a registry of observability counters and histograms.
	Metrics = obs.Metrics
)

// Pruning criteria.
var (
	// CriterionAccOutputs is iPrune's accelerator-output criterion.
	CriterionAccOutputs Criterion = core.AccOutputs{}
	// CriterionEnergy is the energy-aware (ePrune) criterion.
	CriterionEnergy Criterion = core.Energy{}
	// CriterionMACs is the compute-only ablation criterion.
	CriterionMACs Criterion = core.MACs{}
	// CriterionUniform treats all layers alike (magnitude-only ablation).
	CriterionUniform Criterion = core.Uniform{}
)

// The paper's power operating points.
var (
	// ContinuousPower never browns out (1.65 W).
	ContinuousPower = power.ContinuousPower
	// StrongPower is 8 mW harvested.
	StrongPower = power.StrongPower
	// WeakPower is 4 mW harvested.
	WeakPower = power.WeakPower
)

// BuildModel constructs one of the paper's TinyML models: "SQN", "HAR" or
// "CKS".
func BuildModel(name string, seed int64) (*Network, error) {
	return models.ByName(name, seed)
}

// ModelNames lists the available model builders.
func ModelNames() []string { return models.Names() }

// ImageData generates the 10-class image-recognition dataset (SQN).
func ImageData(cfg DataConfig, seed int64) *Dataset { return dataset.Images(cfg, seed) }

// HARData generates the 6-class activity dataset (HAR).
func HARData(cfg DataConfig, seed int64) *Dataset { return dataset.HAR(cfg, seed) }

// SpeechData generates the 12-class keyword dataset (CKS).
func SpeechData(cfg DataConfig, seed int64) *Dataset { return dataset.Speech(cfg, seed) }

// TrainSGD trains the network with momentum SGD and per-epoch learning
// rate decay (0.85), returning the final training loss.
func TrainSGD(net *Network, train []Sample, epochs int, lr float64, seed int64) float64 {
	opt := nn.NewSGD(lr, 0.9)
	rng := rand.New(rand.NewSource(seed))
	var loss float64
	for e := 0; e < epochs; e++ {
		loss = nn.TrainEpoch(net, train, opt, 16, rng)
		opt.LR *= 0.85
	}
	return loss
}

// Accuracy evaluates float top-1 accuracy.
func Accuracy(net *Network, samples []Sample) float64 { return nn.Accuracy(net, samples) }

// DeployedAccuracy evaluates top-1 accuracy under Q15 deployment numerics.
func DeployedAccuracy(net *Network, samples []Sample) float64 {
	return quant.AccuracyQ15(quant.QuantizeWeights(net), samples)
}

// DefaultPruneOptions returns the paper-default pruning configuration
// (Γ̂=40%, ε=1%, second chance, RMS blocks, simulated annealing).
func DefaultPruneOptions() PruneOptions { return core.DefaultOptions() }

// Prune runs intermittent-aware (iPrune) pruning on a trained network.
func Prune(net *Network, train, val []Sample, opts PruneOptions) (*PruneResult, error) {
	return PruneWith(CriterionAccOutputs, net, train, val, opts)
}

// PruneWith runs the iterative pruning loop under any criterion.
func PruneWith(crit Criterion, net *Network, train, val []Sample, opts PruneOptions) (*PruneResult, error) {
	p := core.NewPruner(crit)
	p.Opt = opts
	return p.Run(net, train, val)
}

// DefaultEngineConfig returns the HAWAII⁺ tiling configuration for the
// MSP430 platform.
func DefaultEngineConfig() EngineConfig { return tile.DefaultConfig() }

// MSP430 returns the default device cost profile.
func MSP430() DeviceProfile { return device.MSP430FR5994() }

// Simulate runs one event-driven end-to-end intermittent inference of the
// network under a supply and returns latency, energy, failure and
// breakdown statistics. The network's pruning masks (if any) shape the
// accelerator-operation schedule. A non-nil error is
// *hawaii.ErrOpExceedsBuffer: an op in the schedule can never fit one
// buffer charge, so the inference cannot complete under this supply.
func Simulate(net *Network, sup Supply, seed int64) (SimResult, error) {
	return SimulateObserved(net, sup, seed, nil)
}

// SimulateObserved is Simulate with a tracer attached: every op, layer
// boundary, power cycle, failure and recovery of the run is emitted as a
// typed event (record with NewTraceRecorder, then export via
// CollectTrace / WriteChromeTrace / WriteTraceCSV). A nil tracer
// behaves exactly like Simulate.
func SimulateObserved(net *Network, sup Supply, seed int64, tr Tracer) (SimResult, error) {
	p, err := CompileSim(net)
	if err != nil {
		return SimResult{}, err
	}
	return p.Simulate(sup, seed, tr)
}

// SimPlan is a network compiled once for the cost simulator: its
// accelerator-op schedule with every op priced. Each Simulate on it
// skips the schedule build and pricing, so code that simulates one
// model many times (several supplies, seeds or inferences) compiles
// once and reuses the plan. A SimPlan is safe for concurrent use.
type SimPlan struct {
	plan *hawaii.Plan
}

// CompileSim installs any missing block masks and compiles net's
// intermittent schedule under the default engine configuration. Later
// edits to net do not reach the plan. A mask the engine cannot schedule
// returns *tile.ErrMaskGeometry.
func CompileSim(net *Network) (*SimPlan, error) {
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	if err := tile.EnsureMasks(net, specs); err != nil {
		return nil, err
	}
	plan, err := hawaii.NewCostSim(cfg).CompileNetwork(net, specs, tile.Intermittent)
	if err != nil {
		return nil, err
	}
	return &SimPlan{plan: plan}, nil
}

// Simulate runs one inference of the plan under sup, exactly as
// SimulateObserved(net, sup, seed, tr) would; tr may be nil.
func (p *SimPlan) Simulate(sup Supply, seed int64, tr Tracer) (SimResult, error) {
	return p.plan.Run(power.NewSim(power.DefaultBuffer(), sup, seed), tr)
}

// SweepPoint is one operating point of a PowerSweep: the supply it ran
// under and the simulation outcome. Err is non-nil when the point cannot
// complete (ErrOpExceedsBuffer at powers too weak to charge one op).
type SweepPoint struct {
	Supply Supply
	Result SimResult
	Err    error
}

// PowerSweep simulates one end-to-end inference of net at every supply,
// sharded workers-wide across the internal worker pool (workers <= 1 is
// fully sequential, 0 is not special-cased — pass the parallelism you
// want). The network is compiled once, before the fan-out, into a plan
// every point runs with its own power simulator, so points share only
// that immutable plan and results are positionally deterministic:
// pts[i] always corresponds to sups[i], whatever the worker count, and
// equals Simulate(net, sups[i], seed). A mask the schedule cannot
// follow puts its *tile.ErrMaskGeometry on every point.
func PowerSweep(net *Network, sups []Supply, seed int64, workers int) []SweepPoint {
	return PowerSweepContext(context.Background(), net, sups, seed, workers)
}

// PowerSweepContext is PowerSweep under a cancellable context. Points
// the fan-out never ran (cancellation stops the pool between index
// draws) carry the pool's error — typically ctx.Err() — in their Err
// field alongside their Supply, so a partially-swept result never looks
// like a clean one. Worker panics still propagate as panics.
func PowerSweepContext(ctx context.Context, net *Network, sups []Supply, seed int64, workers int) []SweepPoint {
	pts := make([]SweepPoint, len(sups))
	for i := range pts {
		pts[i].Supply = sups[i]
	}
	done := make([]bool, len(sups))
	markSkipped := func(err error) {
		for i := range pts {
			if !done[i] {
				pts[i].Err = err
			}
		}
	}
	plan, err := CompileSim(net)
	if err != nil {
		markSkipped(err)
		return pts
	}
	runPoint := func(i int) {
		pts[i].Result, pts[i].Err = plan.Simulate(sups[i], seed, nil)
		done[i] = true
	}
	if workers <= 1 || len(sups) <= 1 {
		for i := range sups {
			if err := ctx.Err(); err != nil {
				markSkipped(err)
				return pts
			}
			runPoint(i)
		}
		return pts
	}
	p := pool.New(workers - 1) // the calling goroutine participates
	defer p.Close()
	if err := p.ForEach(ctx, len(sups), runPoint); err != nil {
		if pe, ok := err.(*pool.PanicError); ok {
			panic(pe.Value)
		}
		markSkipped(err)
	}
	return pts
}

// NewTraceRecorder returns an in-memory event recorder to pass to
// SimulateObserved or an Engine's Trace field.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// NewTraceStreamer returns a tracer that renders each emitted event as
// Chrome trace-event JSON straight into w, retaining nothing — the
// constant-memory counterpart of recording and then calling
// WriteChromeTrace, with byte-identical output. The caller must Close
// it to terminate the JSON document; any prefix of emissions followed
// by Close parses.
func NewTraceStreamer(w io.Writer, names []string) *TraceStreamer {
	return obs.NewStreamTracer(w, names)
}

// TeeTracers fans one event stream out to several tracers — typically a
// streaming artifact writer plus a recorder feeding CollectTrace. Nil
// members are dropped.
func TeeTracers(ts ...Tracer) Tracer { return obs.NewTee(ts...) }

// TraceStream is a file-backed TraceStreamer created by
// CreateTraceStream; Close finalizes both the JSON document and the
// file.
type TraceStream struct {
	*TraceStreamer
	f io.Closer
}

// Close terminates the trace document and closes the underlying file,
// returning the first error of the stream's lifetime.
func (s *TraceStream) Close() error {
	err := s.TraceStreamer.Close()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CreateTraceStream creates path and returns a streaming tracer writing
// Chrome trace JSON into it. Pass it to SimulateObserved (directly or
// inside TeeTracers) and Close it when the run ends; Close errors mean
// the artifact is incomplete and must be surfaced.
func CreateTraceStream(path string, names []string) (*TraceStream, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &TraceStream{TraceStreamer: obs.NewStreamTracer(f, names), f: f}, nil
}

// DiffTrace compares two aggregated runs layer by layer: the
// before/after pruning story (latency, energy, preserves,
// re-executions per layer, absolute and percent). Layers present in
// only one run diff against zero; percent changes against a zero
// baseline are marked invalid rather than divided.
func DiffTrace(before, after *RunStats) *TraceDiff { return obs.DiffRunStats(before, after) }

// ReadTraceCSV parses a CSV written by WriteTraceCSV back into run
// statistics plus the layer-name table, so exported runs can be diffed
// without re-simulating.
func ReadTraceCSV(r io.Reader) (*RunStats, []string, error) { return obs.ReadStatsCSV(r) }

// WriteTraceDiffTable renders a cross-run diff as a terminal table.
func WriteTraceDiffTable(w io.Writer, d *TraceDiff, names []string) error {
	return obs.WriteDiffTable(w, d, names)
}

// WriteTraceDiffCSV renders a cross-run diff as long-form CSV (one row
// per layer per metric).
func WriteTraceDiffCSV(w io.Writer, d *TraceDiff, names []string) error {
	return obs.WriteDiffCSV(w, d, names)
}

// CollectTrace aggregates recorded events into per-layer and
// per-power-cycle statistics.
func CollectTrace(events []TraceEvent) *RunStats { return obs.Collect(events) }

// PrunableLayerNames returns the names of the network's prunable layers
// in schedule order — the name table for trace and metrics sinks.
func PrunableLayerNames(net *Network) []string {
	specs := tile.SpecsFromNetwork(net, tile.DefaultConfig())
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].Name
	}
	return names
}

// ParseSupply parses a supply name: continuous | strong | weak, or a
// custom harvest power like "6mW".
func ParseSupply(name string) (Supply, error) { return power.ParseSupply(name) }

// NewMetrics returns an empty observability metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// WriteChromeTrace renders recorded events as Chrome trace-event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// names labels layer indices (see PrunableLayerNames).
func WriteChromeTrace(w io.Writer, events []TraceEvent, names []string) error {
	return obs.WriteChromeTrace(w, events, names)
}

// WriteTraceCSV renders per-layer run statistics as CSV (one row per
// layer plus a "total" row whose latency/energy equal the simulator's
// aggregate result).
func WriteTraceCSV(w io.Writer, s *RunStats, names []string) error {
	return obs.WriteCSV(w, s, names)
}

// WriteTraceSummary renders a terminal summary of a recorded run; m is
// optional (nil skips the counter/histogram section).
func WriteTraceSummary(w io.Writer, s *RunStats, m *Metrics, names []string) error {
	return obs.WriteSummary(w, s, m, names)
}

// WriteHistogramsCSV renders every histogram of a metrics registry in
// long form, one CSV row per bucket (le = inclusive upper bound, "+Inf"
// for overflow) — the machine-readable companion to WriteTraceSummary.
func WriteHistogramsCSV(w io.Writer, m *Metrics) error {
	return obs.WriteHistogramsCSV(w, m)
}

// WriteArtifact creates path and renders into it, surfacing write and
// close errors instead of leaving a silently truncated file. It is the
// export primitive behind every CLI -trace/-metrics/-hist flag.
func WriteArtifact(path string, render func(io.Writer) error) error {
	return obs.WriteFile(path, render)
}

// ObserveModel registers the analytic per-layer cost counters of the
// network (ops, jobs — the pruning criterion —, MACs and NVM traffic)
// in a metrics registry. A mask the engine cannot schedule returns
// *tile.ErrMaskGeometry and registers nothing.
func ObserveModel(m *Metrics, net *Network) error {
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	if err := tile.EnsureMasks(net, specs); err != nil {
		return err
	}
	tile.ObserveNetwork(m, net, specs, tile.Intermittent, cfg)
	return nil
}

// ModelStats summarizes a deployable model.
type ModelStats struct {
	SizeBytes  int   // BSR payload + indices + biases
	Weights    int   // remaining weight elements
	MACs       int64 // multiply-accumulates per inference
	AccOutputs int64 // accelerator outputs per inference (iPrune criterion)
}

// Stats computes the deployable-model statistics of a network under the
// default engine configuration.
func Stats(net *Network) (ModelStats, error) {
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	if err := tile.EnsureMasks(net, specs); err != nil {
		return ModelStats{}, err
	}
	m, err := quant.Deploy(net, specs)
	if err != nil {
		return ModelStats{}, err
	}
	c := tile.CountNetwork(net, specs, tile.Intermittent, cfg)
	return ModelStats{
		SizeBytes:  m.SizeBytes(),
		Weights:    net.TotalWeights(),
		MACs:       c.MACs,
		AccOutputs: c.Jobs,
	}, nil
}

// Engine constructs the functional HAWAII⁺ engine for a network: it
// executes real Q15 inference job by job with progress preservation and
// recovery under injected power failures. Calibrate it with a few samples
// before use.
func Engine(net *Network) (*hawaii.Engine, error) {
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	if err := tile.EnsureMasks(net, specs); err != nil {
		return nil, err
	}
	return hawaii.NewEngine(net, specs, cfg)
}

// SaveModel writes a trained (possibly pruned) paper model to disk; the
// network must come from BuildModel with the given seed.
func SaveModel(path string, net *Network, seed int64) error {
	return models.Save(path, net, seed)
}

// LoadModel restores a model written by SaveModel.
func LoadModel(path string) (*Network, error) { return models.Load(path) }

// ShareWeights applies k-means weight sharing (2^bits shared values per
// layer) in place — the compression extension from the paper's
// conclusion. It composes with pruning: masked weights stay zero. Returns
// the mean squared weight perturbation.
func ShareWeights(net *Network, bits int, seed int64) (float64, error) {
	res, err := compress.Share(net, bits, 25, seed)
	if err != nil {
		return 0, err
	}
	return res.MeanSquaredError, nil
}

// SolarTrace builds a synthetic solar-day harvest profile (sine arc with
// seeded cloud dips) peaking at peakWatts over duration seconds.
func SolarTrace(peakWatts, duration float64, clouds int, seed int64) power.Trace {
	return power.SolarDay(peakWatts, duration, clouds, seed)
}

// SimulateTrace runs one intermittent inference against a time-varying
// harvest trace (see SolarTrace).
func SimulateTrace(net *Network, tr power.Trace, seed int64) (SimResult, error) {
	sim, err := power.NewTraceSim(power.DefaultBuffer(), tr, seed)
	if err != nil {
		return SimResult{}, err
	}
	p, err := CompileSim(net)
	if err != nil {
		return SimResult{}, err
	}
	return p.plan.Run(sim, nil)
}

// Trace re-exports the time-varying harvest profile type.
type Trace = power.Trace

// FailEveryN re-exports the functional engine's deterministic failure
// injector (fails at every N-th preservation boundary).
type FailEveryN = hawaii.EveryN

// ---------------------------------------------------------------------------
// Unified timeline: calibrated engine traces, telemetry hub, budget audit

// ObserveEngine runs one functional-engine inference of the network
// with its trace calibrated against the shared energy cost model: the
// emitted events are stamped in the same simulated seconds and joules
// CostSim stamps, so an engine section and a cost-sim section of the
// same model and supply overlay on one time axis (stream both into one
// TraceStreamer with NextProcess between them). The input sample is
// synthesized from the model's input shape with the given seed; inj may
// be nil (no injected failures) or a FailEveryN to exercise the
// recovery and recharge pricing.
func ObserveEngine(net *Network, sup Supply, seed int64, tr Tracer, inj *FailEveryN) error {
	shape, err := models.InputShape(net.Name)
	if err != nil {
		return err
	}
	e, err := Engine(net)
	if err != nil {
		return err
	}
	e.Trace = tr
	e.Price = hawaii.NewTracePricer(sup, tile.DefaultConfig())
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.Float64()*2 - 1)
	}
	var fi hawaii.FailureInjector
	if inj != nil {
		fi = inj
	}
	_, err = e.Infer(x, fi)
	return err
}

// BudgetAudit is the static-vs-measured energy audit of one recorded
// run (see AuditTrace).
type BudgetAudit = energy.AuditReport

// AuditTrace cross-checks a recorded run's measured energy against the
// static power-cycle budget the regionbudget analyzer enforces: every
// measured atomic region (op commit, recovery, preservation write,
// failed attempt) must fit one buffer charge, and every completed power
// cycle's draw must be explained by one charge plus the supply's
// harvest. The trace must carry energy — record a Simulate run, or an
// ObserveEngine run (whose pricing the audit then checks against the
// same model). Use AuditReport.WriteReport to render, Failed to gate.
func AuditTrace(events []TraceEvent, sup Supply) *BudgetAudit {
	hw := sup.Power
	if sup.Continuous {
		hw = 0
	}
	return energy.Default().AuditTrace(events, hw, sup.Jitter)
}

// CountRegionFindings reads an `iprunelint -json` report and counts its
// regionbudget findings — the static half of the budget audit. Assign
// the count to an AuditReport's StaticFindings to fold the static
// cross-check into its verdict.
func CountRegionFindings(r io.Reader) (int, error) { return energy.CountRegionFindings(r) }

// TelemetryHub re-exports the fleet telemetry collector: one tracer
// lane per device, each written only by the goroutine running that
// device, merged at Close into per-device stats, fleet rollup metrics
// and one multi-process trace. See obs.Hub for the ownership model.
type TelemetryHub = obs.Hub

// TelemetryDevice is one device's tracer lane into a TelemetryHub.
type TelemetryDevice = obs.HubDevice

// NewTelemetryHub returns an empty hub; Close it after all producers
// finish.
func NewTelemetryHub() *TelemetryHub { return obs.NewHub(0) }

// ReadHistogramsCSV parses a WriteHistogramsCSV export back into a
// metrics registry.
func ReadHistogramsCSV(r io.Reader) (*Metrics, error) { return obs.ReadHistogramsCSV(r) }

// WriteHistogramDiffTable renders a cross-run histogram comparison
// (n, mean, p50/p95/p99 per histogram) as a terminal table.
func WriteHistogramDiffTable(w io.Writer, before, after *Metrics) error {
	return obs.WriteHistDiffTable(w, before, after)
}

// StartProfiles starts the runtime/pprof CPU and/or heap profiles
// behind the CLIs' -cpuprofile/-memprofile flags; either path may be
// empty. Run the returned stop function before exiting to finalize the
// profile files.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	return obs.StartProfiles(cpuPath, memPath)
}
