package hawaii

import (
	"testing"

	"iprune/internal/dataset"
	"iprune/internal/models"
	"iprune/internal/power"
	"iprune/internal/tile"
)

// The functional engine must execute every paper model end to end and
// survive failure injection with bit-identical results — on the real
// architectures, not just the test net.
func TestEngineRunsPaperModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model functional inference")
	}
	type app struct {
		name    string
		samples func() *dataset.Dataset
	}
	apps := []app{
		{"HAR", func() *dataset.Dataset {
			return dataset.HAR(dataset.Config{Train: 4, Test: 2, Noise: 0.5}, 1)
		}},
		{"CKS", func() *dataset.Dataset {
			return dataset.Speech(dataset.Config{Train: 4, Test: 2, Noise: 0.5}, 1)
		}},
		{"SQN", func() *dataset.Dataset {
			return dataset.Images(dataset.Config{Train: 4, Test: 2, Noise: 0.5}, 1)
		}},
	}
	cfg := tile.DefaultConfig()
	for _, a := range apps {
		net, err := models.ByName(a.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		specs := tile.SpecsFromNetwork(net, cfg)
		tile.InstallMasks(net, specs)
		// Prune a third of each layer so BSR skipping is exercised.
		for _, p := range net.Prunables() {
			m := p.Mask()
			for b := 0; b < m.NumBlocks(); b += 3 {
				m.Keep[b] = false
			}
			p.ApplyMask()
		}
		eng, err := NewEngine(net, specs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		ds := a.samples()
		eng.Calibrate(ds.Train)
		clean, err := eng.Infer(ds.Test[0].X, nil)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		faulty, err := eng.Infer(ds.Test[0].X, &EveryN{N: 97})
		if err != nil {
			t.Fatalf("%s faulty: %v", a.name, err)
		}
		if faulty.Stats.Failures == 0 {
			t.Errorf("%s: injector produced no failures over %d ops", a.name, clean.Stats.Ops)
		}
		for i := range clean.Logits {
			if clean.Logits[i] != faulty.Logits[i] {
				t.Fatalf("%s: failure injection changed logit %d", a.name, i)
			}
		}
		// Committed jobs must match the analytic criterion.
		want := tile.CountNetwork(net, specs, tile.Intermittent, cfg).Jobs
		if clean.Stats.Jobs != want {
			t.Errorf("%s: engine jobs %d != analytic %d", a.name, clean.Stats.Jobs, want)
		}
	}
}

// The cost simulator must reproduce the paper's power-cycle magnitudes on
// the real models: dozens to a few hundreds of cycles per inference.
func TestPaperModelsPowerCycleCounts(t *testing.T) {
	cfg := tile.DefaultConfig()
	for _, name := range models.Names() {
		net, err := models.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		specs := tile.SpecsFromNetwork(net, cfg)
		tile.InstallMasks(net, specs)
		cs := NewCostSim(cfg)
		res := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.StrongPower, 1)
		if res.Failures < 12 || res.Failures > 3000 {
			t.Errorf("%s: %d power cycles under strong power; paper reports dozens to a few hundreds",
				name, res.Failures)
		}
	}
}

// TestRunPlanAllocsIndependentOfLength is the compile-once gate: with
// the plan compiled and the power simulator built outside the measured
// function, running HAR (240 ops) and SQN (3816 ops) allocates the same
// number of objects, so no per-op cost is left in the simulation loop.
func TestRunPlanAllocsIndependentOfLength(t *testing.T) {
	const runs = 20
	cfg := tile.DefaultConfig()
	allocs := map[string]float64{}
	for _, name := range []string{"HAR", "SQN"} {
		net, err := models.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		specs := tile.SpecsFromNetwork(net, cfg)
		tile.InstallMasks(net, specs)
		plan, err := NewCostSim(cfg).CompileNetwork(net, specs, tile.Intermittent)
		if err != nil {
			t.Fatal(err)
		}
		sims := make([]*power.Sim, runs+1) // AllocsPerRun adds one warm-up call
		for i := range sims {
			sims[i] = power.NewSim(power.DefaultBuffer(), power.WeakPower, int64(i))
		}
		next := 0
		allocs[name] = testing.AllocsPerRun(runs, func() {
			res, err := plan.Run(sims[next], nil)
			next++
			if err != nil || res.Failures == 0 {
				t.Errorf("%s: %d failures, err %v; want an intermittent run", name, res.Failures, err)
			}
		})
		t.Logf("%s: %d ops, %.0f allocs per run", name, plan.Len(), allocs[name])
	}
	if allocs["HAR"] != allocs["SQN"] {
		t.Errorf("allocs per run: HAR %.0f, SQN %.0f; want equal", allocs["HAR"], allocs["SQN"])
	}
}
