package iprune_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iprune"
	"iprune/internal/models"
	"iprune/internal/tile"
)

func TestFacadeBuildAndStats(t *testing.T) {
	for _, name := range iprune.ModelNames() {
		net, err := iprune.BuildModel(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := iprune.Stats(net)
		if err != nil {
			t.Fatal(err)
		}
		if st.SizeBytes <= 0 || st.MACs <= 0 || st.AccOutputs <= 0 || st.Weights <= 0 {
			t.Errorf("%s: degenerate stats %+v", name, st)
		}
	}
	if _, err := iprune.BuildModel("nope", 1); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestFacadeSimulateOrdering(t *testing.T) {
	net, err := iprune.BuildModel("HAR", 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := func(sup iprune.Supply) iprune.SimResult {
		t.Helper()
		r, err := iprune.Simulate(net, sup, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cont := sim(iprune.ContinuousPower)
	strong := sim(iprune.StrongPower)
	weak := sim(iprune.WeakPower)
	if !(cont.Latency < strong.Latency && strong.Latency < weak.Latency) {
		t.Errorf("latency ordering violated: %v %v %v", cont.Latency, strong.Latency, weak.Latency)
	}
}

// TestPowerSweepCancelledPropagatesError pins the sweep error path: a
// cancelled fan-out must surface the pool's error on every point it
// never ran instead of returning points that look clean.
func TestPowerSweepCancelledPropagatesError(t *testing.T) {
	net, err := iprune.BuildModel("HAR", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sups := []iprune.Supply{iprune.ContinuousPower, iprune.StrongPower, iprune.WeakPower}
	for _, workers := range []int{1, 3} {
		pts := iprune.PowerSweepContext(ctx, net, sups, 1, workers)
		if len(pts) != len(sups) {
			t.Fatalf("workers=%d: got %d points, want %d", workers, len(pts), len(sups))
		}
		for i, pt := range pts {
			if pt.Supply.Name != sups[i].Name {
				t.Errorf("workers=%d: pts[%d].Supply = %q, want %q", workers, i, pt.Supply.Name, sups[i].Name)
			}
			if pt.Err == nil {
				t.Errorf("workers=%d: pts[%d].Err = nil after cancellation", workers, i)
			}
		}
	}
}

// TestObserveModelMaskGeometryError pins ObserveModel on a snapshot
// whose masks hold one block per layer: it loads without error, and
// ObserveModel returns *tile.ErrMaskGeometry instead of panicking while
// counting the layers.
func TestObserveModelMaskGeometryError(t *testing.T) {
	net := models.HAR(1)
	for _, p := range net.Prunables() {
		_, rows, cols := p.WeightMatrix()
		p.InitBlocks(rows, cols)
	}
	path := filepath.Join(t.TempDir(), "har.model")
	if err := iprune.SaveModel(path, net, 1); err != nil {
		t.Fatal(err)
	}
	loaded, err := iprune.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	var geom *tile.ErrMaskGeometry
	if err := iprune.ObserveModel(iprune.NewMetrics(), loaded); !errors.As(err, &geom) {
		t.Fatalf("ObserveModel: err = %v, want *tile.ErrMaskGeometry", err)
	}
}

// TestSimulateMaskGeometryError pins the simulate entry points on a
// network whose mask blocks a layer differently from the engine's ops:
// each returns *tile.ErrMaskGeometry instead of panicking while
// building the schedule.
func TestSimulateMaskGeometryError(t *testing.T) {
	net := models.HAR(1)
	net.Prunables()[0].InitBlocks(4, 4)
	check := func(what string, err error) {
		t.Helper()
		var geom *tile.ErrMaskGeometry
		if !errors.As(err, &geom) {
			t.Errorf("%s: err = %v, want *tile.ErrMaskGeometry", what, err)
		} else if geom.BM != 4 || geom.BK != 4 {
			t.Errorf("%s: error reports block %dx%d, want 4x4", what, geom.BM, geom.BK)
		}
	}
	_, err := iprune.Simulate(net, iprune.WeakPower, 1)
	check("Simulate", err)
	_, err = iprune.SimulateTrace(net, iprune.SolarTrace(8e-3, 60, 2, 1), 1)
	check("SimulateTrace", err)
	for _, workers := range []int{1, 2} {
		for i, pt := range iprune.PowerSweep(net, []iprune.Supply{iprune.StrongPower, iprune.WeakPower}, 1, workers) {
			check(fmt.Sprintf("PowerSweep workers=%d point %d", workers, i), pt.Err)
		}
	}
}

func TestFacadeTrainPruneRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end train+prune")
	}
	ds := iprune.HARData(iprune.DataConfig{Train: 96, Test: 48, Noise: 0.3}, 3)
	net, err := iprune.BuildModel("HAR", 3)
	if err != nil {
		t.Fatal(err)
	}
	iprune.TrainSGD(net, ds.Train, 6, 0.005, 3)
	base := iprune.Accuracy(net, ds.Test)
	if base < 0.6 {
		t.Fatalf("HAR failed to train: %.3f", base)
	}

	opts := iprune.DefaultPruneOptions()
	opts.MaxIters = 3
	opts.FinetuneEpochs = 3
	opts.Epsilon = 0.08
	opts.GammaHat = 0.2
	opts.LR = 0.002
	res, err := iprune.Prune(net, ds.Train, ds.Test, opts)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := iprune.Stats(net)
	after, err := iprune.Stats(res.Net)
	if err != nil {
		t.Fatal(err)
	}
	if after.AccOutputs >= before.AccOutputs {
		t.Errorf("pruning did not reduce accelerator outputs: %d -> %d", before.AccOutputs, after.AccOutputs)
	}
	if res.BaseAccuracy-res.Accuracy > opts.Epsilon+1e-9 {
		t.Errorf("accuracy loss %.3f exceeds epsilon", res.BaseAccuracy-res.Accuracy)
	}

	// Deployment accuracy and persistence.
	if q := iprune.DeployedAccuracy(res.Net, ds.Test); q < res.Accuracy-0.1 {
		t.Errorf("Q15 accuracy %.3f far below float %.3f", q, res.Accuracy)
	}
	path := filepath.Join(t.TempDir(), "m.model")
	if err := iprune.SaveModel(path, res.Net, 3); err != nil {
		t.Fatal(err)
	}
	loaded, err := iprune.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := iprune.Stats(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if ls.AccOutputs != after.AccOutputs {
		t.Error("loaded model lost pruning masks")
	}
}

func TestFacadeEngineMatchesSimCriterion(t *testing.T) {
	// The functional engine's committed jobs must equal the Stats
	// criterion value: the two views of "accelerator outputs" agree.
	net, err := iprune.BuildModel("HAR", 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := iprune.Stats(net)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := iprune.Engine(net)
	if err != nil {
		t.Fatal(err)
	}
	ds := iprune.HARData(iprune.DataConfig{Train: 4, Test: 4, Noise: 0.3}, 5)
	eng.Calibrate(ds.Train)
	r, err := eng.Infer(ds.Test[0].X, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Jobs != st.AccOutputs {
		t.Errorf("engine jobs %d != criterion %d", r.Stats.Jobs, st.AccOutputs)
	}
}

// TestFacadeStreamMatchesRecordedTrace pins the streaming path end to
// end over a real simulated run: a TraceStreamer teed with a recorder
// must produce exactly the bytes WriteChromeTrace renders from the
// recording afterwards.
func TestFacadeStreamMatchesRecordedTrace(t *testing.T) {
	net, err := iprune.BuildModel("HAR", 7)
	if err != nil {
		t.Fatal(err)
	}
	names := iprune.PrunableLayerNames(net)
	rec := iprune.NewTraceRecorder()
	var streamed bytes.Buffer
	st := iprune.NewTraceStreamer(&streamed, names)
	if _, err := iprune.SimulateObserved(net, iprune.StrongPower, 7, iprune.TeeTracers(st, rec)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("simulation emitted no events")
	}
	var recorded bytes.Buffer
	if err := iprune.WriteChromeTrace(&recorded, rec.Events(), names); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), recorded.Bytes()) {
		t.Error("streamed trace diverges from the recorded render")
	}

	// File-backed variant plus the CSV diff round trip.
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	fs, err := iprune.CreateTraceStream(path, names)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iprune.SimulateObserved(net, iprune.StrongPower, 7, fs); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, recorded.Bytes()) {
		t.Error("file-backed stream diverges from the recorded render")
	}

	stats := iprune.CollectTrace(rec.Events())
	var csvBuf bytes.Buffer
	if err := iprune.WriteTraceCSV(&csvBuf, stats, names); err != nil {
		t.Fatal(err)
	}
	loaded, loadedNames, err := iprune.ReadTraceCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	d := iprune.DiffTrace(stats, loaded)
	if d.Total.Latency.Abs != 0 || d.Total.Energy.Abs != 0 || d.Total.Ops.Abs != 0 {
		t.Errorf("CSV round-trip self-diff not zero: %+v", d.Total)
	}
	var table strings.Builder
	if err := iprune.WriteTraceDiffTable(&table, d, loadedNames); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "total") {
		t.Errorf("diff table missing total row:\n%s", table.String())
	}
}

func TestFacadeShareWeights(t *testing.T) {
	net, err := iprune.BuildModel("HAR", 9)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := iprune.Stats(net)
	mse, err := iprune.ShareWeights(net, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mse <= 0 {
		t.Error("sharing should perturb weights")
	}
	after, _ := iprune.Stats(net)
	if after.AccOutputs != before.AccOutputs {
		t.Error("sharing must not change accelerator outputs")
	}
	if _, err := iprune.ShareWeights(net, 0, 1); err == nil {
		t.Error("expected error for invalid bits")
	}
}

func TestFacadeSimulateTrace(t *testing.T) {
	net, err := iprune.BuildModel("HAR", 9)
	if err != nil {
		t.Fatal(err)
	}
	bright := iprune.Trace{Times: []float64{0, 100}, Powers: []float64{16e-3, 16e-3}}
	dim := iprune.Trace{Times: []float64{0, 100}, Powers: []float64{3e-3, 3e-3}}
	rb, err := iprune.SimulateTrace(net, bright, 1)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := iprune.SimulateTrace(net, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Latency >= rd.Latency {
		t.Errorf("bright %v should beat dim %v", rb.Latency, rd.Latency)
	}
	if _, err := iprune.SimulateTrace(net, iprune.Trace{}, 1); err == nil {
		t.Error("expected error for invalid trace")
	}
}
