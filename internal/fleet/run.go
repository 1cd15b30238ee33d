package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"

	"iprune/internal/dataset"
	"iprune/internal/energy"
	"iprune/internal/hawaii"
	"iprune/internal/models"
	"iprune/internal/obs"
	"iprune/internal/pool"
	"iprune/internal/power"
	"iprune/internal/quant"
	"iprune/internal/tile"
)

// Options configures a scenario run.
type Options struct {
	// Workers is the fan-out width across nodes (the calling goroutine
	// participates); <= 0 uses GOMAXPROCS. Results are identical for any
	// width: nodes share nothing but the scenario.
	Workers int
}

// NodeResult is the outcome of one node's run.
type NodeResult struct {
	ID         string
	Model      string // deployed model after any switch-model events
	Supply     string
	Switches   int // model switches applied
	Inferences int // inferences completed
	Recoveries int // power failures survived (= progress recoveries)
	// DeadlineHits / Deadlines: inferences that met the node's deadline
	// over those that owed one — inferences never run (after an error)
	// count as misses.
	DeadlineHits int
	Deadlines    int
	Latency      float64 // total simulated seconds, dark time included
	Energy       float64 // joules drawn over the whole run
	Accuracy     float64 // deployed (quantized) accuracy of the final model
	Err          error
}

// CheckResult is one evaluated assertion.
type CheckResult struct {
	Desc   string
	Pass   bool
	Detail string
}

// Report is the outcome of a fleet run: per-node results, evaluated
// assertions, and the merged telemetry of every node.
type Report struct {
	Scenario *Scenario
	Nodes    []NodeResult
	Checks   []CheckResult

	hub *obs.Hub
}

// Run executes the scenario: every node simulates independently (fanned
// out Workers-wide), telemetry flows through one obs.Hub, and the
// scenario's assertions are evaluated over the joined results. The
// returned error covers scenario-level problems only; per-node failures
// land in NodeResult.Err and flip Failed().
func Run(sc *Scenario, opts Options) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	nodes, err := compile(sc)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hub := obs.NewHub(0)
	// Register every device before the fan-out, in node order: device
	// identity and trace sections are then independent of worker
	// scheduling. Each device is written only by the worker running its
	// node.
	devs := make([]*obs.HubDevice, len(nodes))
	for i, n := range nodes {
		devs[i] = hub.Device(n.spec.ID, nil)
	}
	results := make([]NodeResult, len(nodes))
	runOne := func(i int) { results[i] = runNode(nodes[i], devs[i]) }
	if workers <= 1 || len(nodes) <= 1 {
		for i := range nodes {
			runOne(i)
		}
	} else {
		p := pool.New(workers - 1) // the calling goroutine participates
		if err := p.ForEach(context.Background(), len(nodes), runOne); err != nil {
			p.Close()
			if pe, ok := err.(*pool.PanicError); ok {
				panic(pe.Value)
			}
			return nil, err
		}
		p.Close()
	}
	hub.Close()
	return &Report{
		Scenario: sc,
		Nodes:    results,
		Checks:   evalChecks(sc, results),
		hub:      hub,
	}, nil
}

// offsetTracer shifts cost-simulator events — stamped on the per-run
// clock that restarts at zero for every inference — onto the node's
// global power timeline (power.Sim's OnTime+OffTime), so a node's trace
// section is one continuous history across inferences and the power
// simulator's own events interleave correctly. The wrapped device is
// held concretely (not as obs.Tracer) so the wrapper never re-enters
// the interface's devirtualized call graph.
type offsetTracer struct {
	t  *obs.HubDevice
	dt float64
}

func (o *offsetTracer) Enabled() bool { return o.t.Enabled() }
func (o *offsetTracer) Emit(ev obs.Event) {
	ev.Time += o.dt
	o.t.Emit(ev)
}

// compilePlan compiles a model's accelerator-op schedule, as deployed
// (dense block masks installed), under the default engine configuration.
func compilePlan(model string, seed int64) (*hawaii.Plan, error) {
	net, err := models.ByName(model, seed)
	if err != nil {
		return nil, err
	}
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	return hawaii.NewCostSim(cfg).CompileNetwork(net, specs, tile.Intermittent)
}

// accSamples sizes the held-out set for the deployed-accuracy probe:
// large enough to rank models, small enough that a fleet of nodes stays
// interactive.
const accSamples = 64

// deployedAccuracy evaluates the quantized model on its task's held-out
// split, seeded per node so the probe is deterministic.
func deployedAccuracy(model string, seed int64) (float64, error) {
	net, err := models.ByName(model, seed)
	if err != nil {
		return 0, err
	}
	cfg, build, err := dataset.ForModel(model)
	if err != nil {
		return 0, err
	}
	cfg.Train, cfg.Test = 1, accSamples
	ds := build(cfg, seed)
	return quant.AccuracyQ15(quant.QuantizeWeights(net), ds.Test), nil
}

// runNode simulates one node end to end: one power simulator spans every
// inference (failures and profile time carry across boundaries), the
// model is compiled at node start and again at each switch-model
// boundary, and all events flow into the node's hub device.
func runNode(n *node, dev *obs.HubDevice) NodeResult {
	r := NodeResult{ID: n.spec.ID, Model: n.spec.Model, Supply: n.label}
	if n.spec.DeadlineS > 0 {
		r.Deadlines = n.spec.Inferences
	}
	var sim *power.Sim
	if n.trace != nil {
		s, err := power.NewTraceSim(power.DefaultBuffer(), *n.trace, n.seed)
		if err != nil {
			r.Err = err
			return r
		}
		sim = s
	} else {
		sim = power.NewSim(power.DefaultBuffer(), n.supply, n.seed)
	}
	// The power simulator emits on the node's global clock; keep it on
	// the raw device so Plan.Run does not rebind it to the per-run
	// tracer below.
	sim.Trace = dev

	plan, err := compilePlan(r.Model, n.seed)
	if err != nil {
		r.Err = err
		return r
	}
	pending := n.switches
	for k := 0; k < n.spec.Inferences; k++ {
		now := sim.OnTime + sim.OffTime
		for len(pending) > 0 && pending[0].at <= now {
			sw := pending[0]
			pending = pending[1:]
			if sw.model == r.Model {
				continue
			}
			r.Model = sw.model
			r.Switches++
			if plan, err = compilePlan(r.Model, n.seed); err != nil {
				r.Err = err
				return r
			}
		}
		res, err := plan.Run(sim, &offsetTracer{t: dev, dt: now})
		r.Latency += res.Latency
		if err != nil {
			r.Err = err
			break
		}
		r.Inferences++
		if n.spec.DeadlineS > 0 && res.Latency <= n.spec.DeadlineS {
			r.DeadlineHits++
		}
	}
	r.Recoveries = sim.Failures
	r.Energy = sim.EnergyUsed
	if acc, err := deployedAccuracy(r.Model, n.seed); err == nil {
		r.Accuracy = acc
	} else if r.Err == nil {
		r.Err = err
	}
	return r
}

// Failed reports whether any node errored or any assertion failed.
func (r *Report) Failed() bool {
	for _, n := range r.Nodes {
		if n.Err != nil {
			return true
		}
	}
	for _, c := range r.Checks {
		if !c.Pass {
			return true
		}
	}
	return false
}

// Rollup returns the fleet-wide merged metrics.
func (r *Report) Rollup() *obs.Metrics { return r.hub.Rollup() }

// WriteTrace writes the merged Chrome trace: one process section per
// node.
func (r *Report) WriteTrace(w io.Writer) error { return r.hub.WriteTrace(w) }

// WriteSummary renders the per-node summary lines, the fleet rollup and
// the assertion verdicts. The output is deterministic for a fixed
// scenario and seed, whatever the worker count.
func (r *Report) WriteSummary(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fleet %s: %d nodes, seed %d\n", r.Scenario.Name, len(r.Nodes), r.Scenario.Seed)
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "  %-12s model=%s supply=%s inf=%d/%d recov=%d",
			n.ID, n.Model, n.Supply, n.Inferences, pickInferences(r.Scenario, n.ID), n.Recoveries)
		if n.Deadlines > 0 {
			fmt.Fprintf(&b, " deadline=%d/%d", n.DeadlineHits, n.Deadlines)
		}
		fmt.Fprintf(&b, " lat=%.3fs energy=%s acc=%.3f", n.Latency, energy.FormatJ(n.Energy), n.Accuracy)
		if n.Switches > 0 {
			fmt.Fprintf(&b, " switches=%d", n.Switches)
		}
		if n.Err != nil {
			fmt.Fprintf(&b, " err=%v", n.Err)
		}
		b.WriteByte('\n')
	}
	m := r.Rollup()
	fmt.Fprintf(&b, "rollup: ops=%.0f cycles=%.0f failures=%.0f energy=%s\n",
		m.Counter("run/ops").Value(), m.Counter("run/power_cycles").Value(),
		m.Counter("run/failures").Value(), energy.FormatJ(m.Counter("run/energy_j").Value()))
	failed := 0
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict, failed = "FAIL", failed+1
		}
		fmt.Fprintf(&b, "check %s %s: %s\n", verdict, c.Desc, c.Detail)
	}
	for _, n := range r.Nodes {
		if n.Err != nil {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(&b, "FAIL (%d problem(s))\n", failed)
	} else {
		fmt.Fprintf(&b, "PASS (%d nodes, %d checks)\n", len(r.Nodes), len(r.Checks))
	}
	_, err := w.Write(b.Bytes())
	return err
}

// pickInferences returns the configured inference count for a node (the
// denominator of the inf= column).
func pickInferences(sc *Scenario, id string) int {
	for _, n := range sc.Nodes {
		if n.ID == id {
			if n.Inferences <= 0 {
				return 1
			}
			return n.Inferences
		}
	}
	return 0
}
