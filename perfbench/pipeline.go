package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"iprune/internal/dataset"
	"iprune/internal/hawaii"
	"iprune/internal/nn"
	"iprune/internal/report"
	"iprune/internal/tensor"
	"iprune/internal/tile"
)

// pipelineTrainSeed is cmd/repro's default seed. The pipeline trains
// and prunes with it whatever --seed says: the pruning trajectory, and
// with it the speed-up and accuracy the paper reports, differ by seed
// (weak-supply speed-ups of 2.0x to 3.9x over seeds 1 to 3), so a fixed
// training seed keeps speedup_x, pruned_acc and every count identical
// from run to run. --seed drives the deployment phase: the failure
// injection period and the order the engine sees the test samples in.
const pipelineTrainSeed = 42

// pipeline is cmd/repro's per-app path for HAR at quick scale (pretrain,
// ePrune, iPrune, Q15 deploy, cost simulation at three supplies),
// followed by deploying the iPrune model on the functional engine over
// the test split, once on stable power and once under injected power
// failures, as examples/har_monitor does.
type pipeline struct {
	seed   int64
	ds     *dataset.Dataset
	everyN int64
	order  []int

	// From the latest traced round, for the traced run's layer metrics.
	// Untraced rounds keep nothing, so each starts with the previous
	// round's models already garbage.
	res                *report.AppResult
	engineOps, reexecs int64
}

func (p *pipeline) setup(tr *tracer) error {
	sp := tr.begin("dataset.LoadData")
	ds, err := report.LoadData("HAR", report.Quick, pipelineTrainSeed)
	tr.end(sp)
	if err != nil {
		return err
	}
	p.ds = ds
	p.everyN, p.order = pipelineDeployInputs(p.seed, len(ds.Test))
	return nil
}

// pipelineDeployInputs derives the deployment phase's inputs from the
// seed: the failure period (a power failure at every n-th preservation
// boundary) and the test-sample order.
func pipelineDeployInputs(seed int64, samples int) (everyN int64, order []int) {
	rng := rand.New(rand.NewSource(seed))
	return 2 + rng.Int63n(9), rng.Perm(samples)
}

// pipelineLog turns report.RunApp's progress lines into spans. The
// lines mark where pretraining, each pruning run and each pruning
// iteration begin and end; what precedes pretraining is dataset
// generation, and what follows the last pruning run is evaluation.
type pipelineLog struct {
	tr              *tracer
	mark            time.Duration // start of the stage in progress
	pretrain, prune int
	evalFrom        time.Duration
}

func (l *pipelineLog) logf(format string, _ ...any) {
	now := l.tr.now()
	switch {
	case strings.Contains(format, "pretraining"):
		l.tr.record("dataset.gen", l.mark, now)
		l.pretrain = l.tr.begin("nn.pretrain")
	case strings.Contains(format, "pretrained"):
		l.tr.end(l.pretrain)
	case strings.Contains(format, "pruning with"):
		l.prune = l.tr.begin("core.prune")
		l.mark = now
	case strings.HasPrefix(format, "iter "):
		l.tr.record("core.iter", l.mark, now)
		l.mark = now
	case strings.Contains(format, "iterations"):
		l.tr.end(l.prune)
		l.evalFrom = now
	}
}

func (p *pipeline) round(_ int, tr *tracer, chk *checks) (int64, error) {
	sp := tr.begin("report.RunApp")
	lg := &pipelineLog{tr: tr, mark: tr.now()}
	res, err := report.RunApp("HAR", report.Quick, pipelineTrainSeed, "", lg.logf)
	tr.record("report.eval", lg.evalFrom, tr.now())
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if tr.on {
		p.res = res
	}
	base, ip := res.Variants[0], res.Variants[2]
	chk.expect(ip.AccuracyF >= base.AccuracyF-report.Quick.Epsilon,
		"iPrune accuracy %.4f below base %.4f - epsilon %.2f", ip.AccuracyF, base.AccuracyF, report.Quick.Epsilon)

	cfg := tile.DefaultConfig()
	sp = tr.begin("tile.SpecsFromNetwork")
	specs := tile.SpecsFromNetwork(ip.Net, cfg)
	tr.end(sp)
	sp = tr.begin("tile.CountNetwork")
	counts := tile.CountNetwork(ip.Net, specs, tile.Intermittent, cfg)
	tr.end(sp)
	var ops int64
	for _, v := range res.Variants {
		for _, sup := range report.Supplies() {
			ops += v.Latency[sup.Name].Ops
		}
	}
	for _, sup := range report.Supplies() {
		jobs := ip.Latency[sup.Name].Jobs
		chk.expect(jobs == counts.Jobs, "iPrune cost-sim jobs %d under %s != tile.CountNetwork %d", jobs, sup.Name, counts.Jobs)
	}

	sp = tr.begin("hawaii.NewEngine")
	eng, err := hawaii.NewEngine(ip.Net, specs, cfg)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("hawaii.Engine.Calibrate")
	eng.Calibrate(p.ds.Train[:16])
	tr.end(sp)
	p.engineOps, p.reexecs = 0, 0
	for _, i := range p.order {
		x := p.ds.Test[i].X
		sp = tr.begin("hawaii.Engine.Infer")
		clean, err := eng.Infer(x, nil)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("hawaii.Engine.Infer.injected")
		hit, err := eng.Infer(x, &hawaii.EveryN{N: p.everyN})
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		chk.expect(sameBits(clean.Logits, hit.Logits),
			"test sample %d: logits under a failure every %d boundaries differ from the clean run", i, p.everyN)
		ops += clean.Stats.Ops + hit.Stats.Ops
		p.engineOps += hit.Stats.Ops
		p.reexecs += hit.Stats.ReExecOps
	}
	return ops, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func (p *pipeline) layers(m metrics, tr *tracer, from int, _ *checks) error {
	m["dataset.gen_s"] = sum(tr.durations(from, "dataset.LoadData"))
	pretrain := sum(tr.durations(from, "nn.pretrain"))
	m["nn.pretrain_s"] = pretrain
	m["nn.train_samples_per_s"] = float64(len(p.ds.Train)*report.Quick.Epochs["HAR"]) / pretrain
	m["core.prune_s"] = sum(tr.durations(from, "core.prune"))
	iters := tr.durations(from, "core.iter")
	m["core.iter_s_p50"] = median(iters)
	m["core.iters"] = float64(len(iters))
	m["report.eval_s"] = sum(tr.durations(from, "report.eval"))

	unpruned, ip := p.res.Variants[0], p.res.Variants[2]
	m["tile.acc_outputs"] = float64(ip.Counts.Jobs)
	weak := ip.Latency["weak"]
	m["hawaii.sim_latency_s"] = weak.Latency
	m["power.failures"] = float64(weak.Failures)
	m["speedup_x"] = unpruned.Latency["weak"].Latency / weak.Latency
	m["pruned_acc"] = ip.AccuracyQ
	m["hawaii.engine_infer_ms_p50"] = median(tr.durations(from, "hawaii.Engine.Infer")) * 1e3
	m["hawaii.engine_reexec_frac"] = float64(p.reexecs) / float64(p.engineOps)

	gflops, err := gemmProbe(unpruned.Net, tr)
	m["tensor.gemm_gflops"] = gflops
	return err
}

// gemmFlops is roughly how much work the probe gives each kernel on
// each layer shape: tens of milliseconds at the kernels' current speed.
const gemmFlops = 5e7

// gemmProbe times the three training GEMMs on the GEMM shapes (M, K, N)
// of the network's prunable layers with dense random operands and
// returns their combined rate in GFLOP/s.
func gemmProbe(net *nn.Network, tr *tracer) (float64, error) {
	specs := tile.SpecsFromNetwork(net, tile.DefaultConfig())
	if len(specs) == 0 {
		return 0, fmt.Errorf("gemm probe: %s has no prunable layers", net.Name)
	}
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Float64()*2 - 1)
		}
		return x
	}
	kernels := []struct {
		name string
		f    func(a, b, c []float32, m, k, n int, acc bool)
	}{
		{"tensor.Gemm", tensor.Gemm},
		{"tensor.GemmTA", tensor.GemmTA},
		{"tensor.GemmTB", tensor.GemmTB},
	}
	// Same-sized operands serve all three kernels: A is m×k (k×m for
	// GemmTA), B is k×n (n×k for GemmTB), C is m×n.
	var flops float64
	var busy time.Duration
	for _, s := range specs {
		a, b, c := fill(s.M*s.K), fill(s.K*s.N), make([]float32, s.M*s.N)
		per := 2 * float64(s.M) * float64(s.K) * float64(s.N)
		reps := int(math.Ceil(gemmFlops / per))
		for _, k := range kernels {
			sp := tr.begin(k.name)
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				k.f(a, b, c, s.M, s.K, s.N, false)
			}
			busy += time.Since(t0)
			tr.end(sp)
			flops += per * float64(reps)
		}
	}
	return flops / busy.Seconds() / 1e9, nil
}
