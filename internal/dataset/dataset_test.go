package dataset

import (
	"math"
	"testing"
)

func allGenerators() []struct {
	name string
	gen  func(Config, int64) *Dataset
	cfg  Config
} {
	return []struct {
		name string
		gen  func(Config, int64) *Dataset
		cfg  Config
	}{
		{"images", Images, ImagesConfig()},
		{"har", HAR, HARConfig()},
		{"speech", Speech, SpeechConfig()},
	}
}

func TestShapesAndSplits(t *testing.T) {
	for _, g := range allGenerators() {
		cfg := g.cfg
		cfg.Train, cfg.Test = 40, 20
		d := g.gen(cfg, 1)
		if len(d.Train) != 40 || len(d.Test) != 20 {
			t.Errorf("%s: split sizes %d/%d", g.name, len(d.Train), len(d.Test))
		}
		want := 1
		for _, dim := range d.Shape {
			want *= dim
		}
		for _, s := range append(d.Train, d.Test...) {
			if s.X.Len() != want {
				t.Fatalf("%s: sample size %d, want %d", g.name, s.X.Len(), want)
			}
			if s.Label < 0 || s.Label >= d.Classes {
				t.Fatalf("%s: label %d out of range", g.name, s.Label)
			}
		}
	}
}

func TestAllClassesPresent(t *testing.T) {
	for _, g := range allGenerators() {
		cfg := g.cfg
		cfg.Train, cfg.Test = 60, 24
		d := g.gen(cfg, 2)
		seen := make([]bool, d.Classes)
		for _, s := range d.Train {
			seen[s.Label] = true
		}
		for cl, ok := range seen {
			if !ok {
				t.Errorf("%s: class %d missing from train split", g.name, cl)
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	for _, g := range allGenerators() {
		cfg := g.cfg
		cfg.Train, cfg.Test = 10, 5
		a := g.gen(cfg, 7)
		b := g.gen(cfg, 7)
		for i := range a.Train {
			for j := range a.Train[i].X.Data {
				if a.Train[i].X.Data[j] != b.Train[i].X.Data[j] {
					t.Fatalf("%s: seed 7 not reproducible at sample %d", g.name, i)
				}
			}
		}
		c := g.gen(cfg, 8)
		same := true
		for j := range a.Train[0].X.Data {
			if a.Train[0].X.Data[j] != c.Train[0].X.Data[j] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical data", g.name)
		}
	}
}

func TestClassSeparationExceedsNoise(t *testing.T) {
	// Prototype structure must be detectable: the mean intra-class
	// distance should be smaller than the mean inter-class distance.
	for _, g := range allGenerators() {
		cfg := g.cfg
		cfg.Train, cfg.Test = 100, 10
		d := g.gen(cfg, 3)
		dist := func(a, b []float32) float64 {
			var s float64
			for i := range a {
				dd := float64(a[i] - b[i])
				s += dd * dd
			}
			return math.Sqrt(s)
		}
		var intra, inter float64
		var nIntra, nInter int
		for i := 0; i < len(d.Train); i++ {
			for j := i + 1; j < len(d.Train) && j < i+20; j++ {
				dd := dist(d.Train[i].X.Data, d.Train[j].X.Data)
				if d.Train[i].Label == d.Train[j].Label {
					intra += dd
					nIntra++
				} else {
					inter += dd
					nInter++
				}
			}
		}
		intra /= float64(nIntra)
		inter /= float64(nInter)
		if inter <= intra {
			t.Errorf("%s: inter-class distance %v <= intra-class %v; task unlearnable", g.name, inter, intra)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-sized split")
		}
	}()
	Images(Config{Train: 0, Test: 1}, 1)
}

func TestValuesFinite(t *testing.T) {
	for _, g := range allGenerators() {
		cfg := g.cfg
		cfg.Train, cfg.Test = 12, 6
		d := g.gen(cfg, 4)
		for _, s := range d.Train {
			for _, v := range s.X.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s: non-finite sample value", g.name)
				}
			}
		}
	}
}

func TestForModel(t *testing.T) {
	for model, want := range map[string]string{"SQN": "images", "HAR": "har", "CKS": "speech"} {
		cfg, gen, err := ForModel(model)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Train, cfg.Test = 2, 2
		if got := gen(cfg, 1).Name; got != want {
			t.Errorf("%s: dataset %q, want %q", model, got, want)
		}
	}
	if _, _, err := ForModel("nope"); err == nil {
		t.Error("unknown model: want an error")
	}
}
