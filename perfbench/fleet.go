package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"iprune/internal/dataset"
	"iprune/internal/fleet"
	"iprune/internal/hawaii"
	"iprune/internal/models"
	"iprune/internal/obs"
	"iprune/internal/power"
	"iprune/internal/quant"
	"iprune/internal/tile"
)

// fleetModels is the fleet: one model name per node. The per-node
// deployed-accuracy probe scores the node's final model and costs about
// 0.8 s of CPU for SQN, 0.15 s for CKS and 0.09 s for HAR, so the mix
// is mostly HAR and the SQN node switches to HAR part-way. With fleetOps
// of work per node, simulation and telemetry, not the probe, then take
// most of a round.
var fleetModels = []string{"SQN", "HAR", "CKS", "HAR", "HAR", "CKS", "HAR", "CKS", "HAR", "HAR"}

// fleetSwitches are the switch-model commands, by node index. They fire
// at fleetSwitchAt on nodes held on the paper's weak supply, so the
// number of inferences each model runs, and with it the host work of a
// round, is the same for every seed.
var fleetSwitches = map[int]string{0: "HAR", 1: "CKS", 2: "HAR"}

const fleetSwitchAt = 90.0 // simulated seconds

// fleetOps is about how many accelerator ops each node runs: its
// inference count is fleetOps over its first model's schedule length.
const fleetOps = 150_000

// scheduleOps are the HAR, CKS and SQN schedule lengths in ops.
var scheduleOps = map[string]int{"HAR": 240, "CKS": 602, "SQN": 3816}

// fleetLoad runs a generated scenario through fleet.Parse into
// fleet.Run at one worker per CPU with telemetry on: one long-lived,
// trace-driven power.Sim per node spanning many inferences, every event
// sent through obs.Hub and kept in memory, nodes fanned out over the
// worker pool.
type fleetLoad struct {
	seed int64
	sc   *fleet.Scenario

	// The latest traced round, for the traced run's layer metrics.
	// Untraced rounds keep nothing, so each starts with the previous
	// round's telemetry already garbage.
	last *fleet.Report
}

// scenarioJSON generates the fleet scenario from the seed. The seed
// picks the harvest of every node that does not switch models (a
// constant supply on even nodes, a solar day long enough to outlast the
// node's inferences on odd ones), the brownout and set-harvest events on
// those nodes, and every node's jitter seed through the scenario seed.
// Deadlines sit on every fourth node, and there is one assertion of each
// kind.
func scenarioJSON(seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := fleet.Scenario{
		Name:        fmt.Sprintf("perfbench-%d", seed),
		Description: "generated benchmark fleet",
		Seed:        seed,
	}
	deadline := map[string]float64{"HAR": 5, "CKS": 10, "SQN": 60}
	var free []string // nodes whose harvest the seed may change
	for i, model := range fleetModels {
		n := fleet.NodeSpec{
			ID:         fmt.Sprintf("n%02d-%s", i, strings.ToLower(model)),
			Model:      model,
			Inferences: fleetOps / scheduleOps[model],
		}
		switch to, ok := fleetSwitches[i]; {
		case ok:
			n.Supply = "weak"
			sc.Events = append(sc.Events, fleet.EventSpec{AtS: fleetSwitchAt, Node: n.ID, Action: "switch-model", Model: to})
		case i%2 == 0:
			n.Supply = fmt.Sprintf("%.2fmW", 3+7*rng.Float64())
			free = append(free, n.ID)
		default:
			n.Solar = &fleet.SolarSpec{
				PeakMW:    8 + 8*rng.Float64(),
				DurationS: 3600 + 1800*rng.Float64(),
				Clouds:    rng.Intn(4),
				Seed:      rng.Int63n(1 << 20),
			}
			free = append(free, n.ID)
		}
		if i%4 == 0 {
			n.DeadlineS = deadline[model]
		}
		sc.Nodes = append(sc.Nodes, n)
	}
	for k := 0; k < 2; k++ {
		sc.Events = append(sc.Events,
			fleet.EventSpec{AtS: 5 + 55*rng.Float64(), Node: free[rng.Intn(len(free))], Action: "brownout", DurationS: 1 + 9*rng.Float64()},
			fleet.EventSpec{AtS: 10 + 90*rng.Float64(), Node: free[rng.Intn(len(free))], Action: "set-harvest", Supply: fmt.Sprintf("%.2fmW", 3+7*rng.Float64())},
		)
	}
	// The fleet deploys untrained models, so an accuracy floor has
	// nothing to rank yet; a floor of 0 still exercises the assertion.
	zero, half, maxRecoveries := 0.0, 0.5, 1e6
	sc.Assertions = []fleet.AssertSpec{
		{Type: "accuracy-floor", Min: &zero},
		{Type: "max-recoveries", Max: &maxRecoveries},
		{Type: "deadline-hit-rate", Min: &half},
	}
	return json.MarshalIndent(sc, "", "  ")
}

func (f *fleetLoad) setup(tr *tracer) error {
	js, err := scenarioJSON(f.seed)
	if err != nil {
		return err
	}
	sp := tr.begin("fleet.Parse")
	f.sc, err = fleet.Parse(bytes.NewReader(js))
	tr.end(sp)
	return err
}

func (f *fleetLoad) run(workers int, tr *tracer) (*fleet.Report, error) {
	sp := tr.begin("fleet.Run")
	defer tr.end(sp)
	return fleet.Run(f.sc, fleet.Options{Workers: workers})
}

func (f *fleetLoad) round(_ int, tr *tracer, chk *checks) (int64, error) {
	rep, err := f.run(runtime.NumCPU(), tr)
	if err != nil {
		return 0, err
	}
	if tr.on {
		f.last = rep
	}
	for _, n := range rep.Nodes {
		chk.expect(n.Err == nil, "fleet node %s: %v", n.ID, n.Err)
	}
	for _, c := range rep.Checks {
		chk.expect(c.Pass, "fleet assertion %s: %s", c.Desc, c.Detail)
	}
	chk.expect(!rep.Failed(), "fleet report failed")
	sp := tr.begin("obs.Metrics.Rollup")
	ops := rep.Rollup().Counter("run/ops").Value()
	tr.end(sp)
	return int64(ops), nil
}

// fleetEventCounters are the rollup counters that count trace events:
// op starts and commits, preservation writes, failures and power cycles.
var fleetEventCounters = []string{"run/op_attempts", "run/ops", "run/preserve_writes", "run/failures", "run/power_cycles"}

// emitReps is how many HAR inferences the emit probe runs each way.
const emitReps = 200

func (f *fleetLoad) layers(m metrics, tr *tracer, from int, chk *checks) error {
	m["fleet.parse_s"] = sum(tr.durations(from, "fleet.Parse"))
	roll := f.last.Rollup()
	events := 0.0
	for _, c := range fleetEventCounters {
		events += roll.Counter(c).Value()
	}
	m["obs.events"] = events

	// Retained telemetry: live heap with the report held, less live heap
	// once it is dropped.
	var traced bytes.Buffer
	if err := f.last.WriteSummary(&traced); err != nil {
		return err
	}
	runtime.GC()
	held := readGoRuntime().liveBytes
	f.last = nil
	runtime.GC()
	m["obs.retained_mb"] = (held - readGoRuntime().liveBytes) / 1e6

	narrow, perWall, err := f.widths(tr)
	if err != nil {
		return err
	}
	m["pool.fleet_cpu_per_wall"] = perWall
	var b bytes.Buffer
	if err := narrow.WriteSummary(&b); err != nil {
		return err
	}
	chk.expect(bytes.Equal(traced.Bytes(), b.Bytes()), "fleet summary at %d workers differs from 1 worker", runtime.NumCPU())

	acc, err := f.accuracyProbe(narrow, tr)
	if err != nil {
		return err
	}
	m["quant.acc_probe_s"] = acc
	emit, err := emitProbe(tr)
	m["obs.emit_ns"] = emit
	return err
}

// widths runs the scenario with one P per CPU at one worker per CPU,
// returning that run's CPU over wall time, and then at one worker,
// returning its report.
func (f *fleetLoad) widths(tr *tracer) (*fleet.Report, float64, error) {
	n := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	runtime.GC()
	c0, err := cpuTime()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if _, err := f.run(n, tr); err != nil {
		return nil, 0, err
	}
	wall := time.Since(t0).Seconds()
	c1, err := cpuTime()
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	narrow, err := f.run(1, tr)
	return narrow, (c1 - c0).Seconds() / wall, err
}

// accProbeSamples matches the held-out set the fleet's deployed-accuracy
// probe uses per node.
const accProbeSamples = 64

// accuracyProbe repeats the fleet's per-node deployed-accuracy probe for
// every node's final model: build the model, generate its held-out
// split, quantize and score it. It returns the total seconds.
func (f *fleetLoad) accuracyProbe(rep *fleet.Report, tr *tracer) (float64, error) {
	t0 := time.Now()
	for i, n := range rep.Nodes {
		seed := f.sc.Seed + int64(i)
		if s := f.sc.Nodes[i].Seed; s != nil {
			seed = *s
		}
		sp := tr.begin("models.ByName")
		net, err := models.ByName(n.Model, seed)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		var cfg dataset.Config
		var gen func(dataset.Config, int64) *dataset.Dataset
		switch n.Model {
		case "SQN":
			cfg, gen = dataset.ImagesConfig(), dataset.Images
		case "HAR":
			cfg, gen = dataset.HARConfig(), dataset.HAR
		case "CKS":
			cfg, gen = dataset.SpeechConfig(), dataset.Speech
		default:
			return 0, fmt.Errorf("accuracy probe: no dataset for %q", n.Model)
		}
		cfg.Train, cfg.Test = 1, accProbeSamples
		sp = tr.begin("dataset.gen")
		ds := gen(cfg, seed)
		tr.end(sp)
		sp = tr.begin("quant.AccuracyQ15")
		quant.AccuracyQ15(quant.QuantizeWeights(net), ds.Test)
		tr.end(sp)
	}
	return time.Since(t0).Seconds(), nil
}

// emitProbe prices one telemetry event: the same HAR schedule simulated
// with an obs.Hub device as its tracer and with none, the difference
// divided by the events the hub received.
func emitProbe(tr *tracer) (float64, error) {
	cfg := tile.DefaultConfig()
	net, err := models.ByName("HAR", 1)
	if err != nil {
		return 0, err
	}
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	sched := hawaii.ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
	simulate := func(t obs.Tracer, name string) (time.Duration, error) {
		sp := tr.begin(name)
		defer tr.end(sp)
		runtime.GC()
		t0 := time.Now()
		for r := 0; r < emitReps; r++ {
			cs := hawaii.NewCostSim(cfg)
			cs.Trace = t
			if _, err := cs.RunWithSim(sched, tile.Intermittent, power.NewSim(power.DefaultBuffer(), power.WeakPower, int64(r))); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	bare, err := simulate(nil, "hawaii.CostSim.RunWithSim")
	if err != nil {
		return 0, err
	}
	hub := obs.NewHub(1)
	dev := hub.Device("emit-probe", nil)
	traced, err := simulate(dev, "obs.HubDevice.Emit")
	hub.Close()
	if err != nil {
		return 0, err
	}
	return float64((traced - bare).Nanoseconds()) / float64(len(dev.Events())), nil
}
