package models

import (
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iprune/internal/dataset"
	"iprune/internal/nn"
	"iprune/internal/quant"
	"iprune/internal/tensor"
	"iprune/internal/tile"
)

func TestLayerCountsMatchTableII(t *testing.T) {
	cases := []struct {
		name           string
		conv, pool, fc int
	}{
		{"SQN", 11, 2, 0},
		{"HAR", 3, 3, 1},
		{"CKS", 2, 0, 3},
	}
	for _, c := range cases {
		net, err := ByName(c.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts := net.LayerCounts()
		if counts["CONV"] != c.conv || counts["POOL"] != c.pool || counts["FC"] != c.fc {
			t.Errorf("%s: CONV=%d POOL=%d FC=%d, want %d/%d/%d (Table II)",
				c.name, counts["CONV"], counts["POOL"], counts["FC"], c.conv, c.pool, c.fc)
		}
	}
}

func TestModelSizesNearTableII(t *testing.T) {
	// Paper Table II: SQN 147 KB, HAR 28 KB, CKS 131 KB. Allow 20%.
	want := map[string]int{"SQN": 147, "HAR": 28, "CKS": 131}
	cfg := tile.DefaultConfig()
	for name, kb := range want {
		net, _ := ByName(name, 1)
		specs := tile.SpecsFromNetwork(net, cfg)
		tile.InstallMasks(net, specs)
		m, err := quant.Deploy(net, specs)
		if err != nil {
			t.Fatal(err)
		}
		got := m.SizeBytes() / 1024
		lo, hi := kb*8/10, kb*12/10
		if got < lo || got > hi {
			t.Errorf("%s size = %d KB, want within [%d,%d] (paper %d)", name, got, lo, hi, kb)
		}
	}
}

func TestDiversityOrderingMatchesTableII(t *testing.T) {
	cfg := tile.DefaultConfig()
	div := map[string]float64{}
	label := map[string]string{}
	for _, name := range Names() {
		net, _ := ByName(name, 1)
		specs := tile.SpecsFromNetwork(net, cfg)
		tile.InstallMasks(net, specs)
		jobs := tile.LayerJobs(net, specs, cfg)
		div[name] = tile.Diversity(jobs)
		label[name] = tile.DiversityLabel(div[name])
	}
	if !(div["SQN"] < div["HAR"] && div["HAR"] < div["CKS"]) {
		t.Errorf("diversity ordering SQN<HAR<CKS violated: %v", div)
	}
	if label["SQN"] != "Low" || label["HAR"] != "Medium" || label["CKS"] != "High" {
		t.Errorf("diversity labels = %v, want Low/Medium/High", label)
	}
}

func TestForwardShapes(t *testing.T) {
	for _, name := range Names() {
		net, _ := ByName(name, 1)
		shape, err := InputShape(name)
		if err != nil {
			t.Fatal(err)
		}
		out := net.Forward(tensor.New(shape...))
		if out.Len() != net.Classes {
			t.Errorf("%s: output %d logits, want %d", name, out.Len(), net.Classes)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("resnet50", 1); err == nil {
		t.Error("expected error for unknown model")
	}
	if _, err := InputShape("resnet50"); err == nil {
		t.Error("expected error for unknown shape")
	}
}

func TestModelsFitNVM(t *testing.T) {
	// All three deployed models plus the engine must fit the 512 KB FRAM;
	// individually each must be far below it.
	cfg := tile.DefaultConfig()
	for _, name := range Names() {
		net, _ := ByName(name, 1)
		specs := tile.SpecsFromNetwork(net, cfg)
		tile.InstallMasks(net, specs)
		m, err := quant.Deploy(net, specs)
		if err != nil {
			t.Fatal(err)
		}
		if m.SizeBytes() > 512*1024/2 {
			t.Errorf("%s: %d bytes leaves no room for activations in 512 KB FRAM", name, m.SizeBytes())
		}
	}
}

func TestHARTrainsAboveChance(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	ds := dataset.HAR(dataset.Config{Train: 120, Test: 60, Noise: 0.35}, 1)
	net := HAR(1)
	opt := nn.NewSGD(0.02, 0.9)
	rng := rand.New(rand.NewSource(2))
	for e := 0; e < 6; e++ {
		nn.TrainEpoch(net, ds.Train, opt, 16, rng)
	}
	acc := nn.Accuracy(net, ds.Test)
	if acc < 0.5 {
		t.Errorf("HAR accuracy after 6 epochs = %v, want > 0.5 (chance = 0.17)", acc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "har.model")
	net := HAR(7)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	net.Prunables()[0].Mask().Keep[1] = false
	net.Prunables()[0].ApplyMask()
	if err := Save(path, net, 7); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range net.Layers {
		for j, p := range l.Params() {
			gp := got.Layers[i].Params()[j]
			for k := range p.Data {
				if p.Data[k] != gp.Data[k] {
					t.Fatalf("layer %d param %d differs after round trip", i, j)
				}
			}
		}
	}
	gm := got.Prunables()[0].Mask()
	if gm == nil || gm.Keep[1] {
		t.Error("mask not restored")
	}
	// Predictions identical.
	x := tensor.New(3, 1, 128)
	for i := range x.Data {
		x.Data[i] = float32(i%7) * 0.1
	}
	if net.Predict(x) != got.Predict(x) {
		t.Error("loaded model predicts differently")
	}
}

// TestLoadRejectsInvalidMaskGeometry feeds Load snapshots whose mask
// block size is zero or negative: each must come back as an error, not
// a panic inside nn.NewBlockMask.
func TestLoadRejectsInvalidMaskGeometry(t *testing.T) {
	net := HAR(7)
	for _, geom := range [][2]int{{0, 0}, {0, 8}, {8, 0}, {-4, 8}} {
		snap := snapshot{Model: net.Name, Seed: 7, Version: snapshotVersion}
		for _, l := range net.Layers {
			for _, p := range l.Params() {
				snap.Params = append(snap.Params, p.Data)
			}
		}
		for range net.Prunables() {
			snap.Masks = append(snap.Masks, maskSnap{})
		}
		snap.Masks[1] = maskSnap{BM: geom[0], BK: geom[1], Keep: []bool{true}}
		path := filepath.Join(t.TempDir(), "crafted.model")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = Load(path)
		if err == nil || !strings.Contains(err.Error(), "invalid block geometry") {
			t.Errorf("mask geometry %dx%d: Load error = %v, want invalid block geometry", geom[0], geom[1], err)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.model")); err == nil {
		t.Error("expected error for missing file")
	}
}
