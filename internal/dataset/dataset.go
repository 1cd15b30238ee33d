// Package dataset generates the synthetic stand-ins for the paper's three
// TinyML evaluation datasets (Table II): CIFAR-10 images for SQN,
// tri-axial accelerometer windows for HAR, and speech-command MFCC maps
// for CKS.
//
// The real datasets cannot ship with an offline reproduction, and pruning
// research does not need them verbatim — it needs trainable tasks whose
// accuracy degrades when a network is over-pruned and recovers under
// fine-tuning. Each generator therefore builds seeded class structure
// (smooth image prototypes, class-specific motion spectra, formant
// trajectories) plus calibrated noise and per-sample distortions, tuned
// so the unpruned models land near the paper's accuracies (76.3 / 92.5 /
// 87.5 %). Everything is deterministic in the seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"iprune/internal/nn"
	"iprune/internal/tensor"
)

// Dataset is a labelled train/test split with a fixed input shape.
type Dataset struct {
	Name    string
	Classes int
	Shape   []int // input tensor shape (C, H, W)
	Train   []nn.Sample
	Test    []nn.Sample
}

// Config sizes a generated dataset.
type Config struct {
	Train int     // training samples
	Test  int     // held-out samples
	Noise float64 // noise scale; each generator documents its default
}

func (c Config) validate() {
	if c.Train <= 0 || c.Test <= 0 {
		panic(fmt.Sprintf("dataset: non-positive split sizes %+v", c))
	}
}

// ForModel returns the task a paper model (SQN, HAR or CKS) is trained
// and evaluated on: its calibrated default configuration and its
// generator.
func ForModel(model string) (Config, func(Config, int64) *Dataset, error) {
	switch model {
	case "SQN":
		return ImagesConfig(), Images, nil
	case "HAR":
		return HARConfig(), HAR, nil
	case "CKS":
		return SpeechConfig(), Speech, nil
	}
	return Config{}, nil, fmt.Errorf("dataset: no dataset for model %q", model)
}

// ---------------------------------------------------------------------------
// Images (SQN / CIFAR-10 stand-in)

// ImagesConfig returns the calibrated default configuration for the image
// task: 10 classes of 3×32×32 images.
func ImagesConfig() Config { return Config{Train: 512, Test: 256, Noise: 0.68} }

// Images generates the 10-class image-recognition task. Each class is a
// smooth prototype (a superposition of random low-frequency 2-D sinusoids
// per channel); samples add per-sample amplitude jitter, a random
// translation, and Gaussian pixel noise.
func Images(cfg Config, seed int64) *Dataset {
	cfg.validate()
	rng := rand.New(rand.NewSource(seed))
	const classes, ch, hw = 10, 3, 32
	protos := make([][]float32, classes)
	for cl := range protos {
		p := make([]float32, ch*hw*hw)
		for c := 0; c < ch; c++ {
			for w := 0; w < 3; w++ { // three sinusoid components per channel
				fx := 1 + rng.Float64()*2.5
				fy := 1 + rng.Float64()*2.5
				ph := rng.Float64() * 2 * math.Pi
				amp := 0.3 + rng.Float64()*0.4
				for y := 0; y < hw; y++ {
					for x := 0; x < hw; x++ {
						v := amp * math.Sin(2*math.Pi*(fx*float64(x)/hw+fy*float64(y)/hw)+ph)
						p[(c*hw+y)*hw+x] += float32(v)
					}
				}
			}
		}
		protos[cl] = p
	}
	d := &Dataset{Name: "images", Classes: classes, Shape: []int{ch, hw, hw}}
	gen := func(n int) []nn.Sample {
		samples := make([]nn.Sample, n)
		for i := range samples {
			cl := i % classes
			x := tensor.New(ch, hw, hw)
			dx, dy := rng.Intn(5)-2, rng.Intn(5)-2
			gain := float32(0.8 + rng.Float64()*0.4)
			for c := 0; c < ch; c++ {
				for y := 0; y < hw; y++ {
					sy := clampInt(y+dy, 0, hw-1)
					for xx := 0; xx < hw; xx++ {
						sx := clampInt(xx+dx, 0, hw-1)
						v := protos[cl][(c*hw+sy)*hw+sx]*gain +
							float32(rng.NormFloat64()*cfg.Noise)
						x.Data[(c*hw+y)*hw+xx] = v
					}
				}
			}
			samples[i] = nn.Sample{X: x, Label: cl}
		}
		return samples
	}
	d.Train = gen(cfg.Train)
	d.Test = gen(cfg.Test)
	return d
}

// ---------------------------------------------------------------------------
// HAR (accelerometer stand-in)

// HARConfig returns the calibrated default configuration for the
// human-activity task: 6 classes of 3-axis, 128-step windows.
func HARConfig() Config { return Config{Train: 384, Test: 192, Noise: 0.87} }

// HAR generates the 6-class activity-detection task. Each class gives
// every axis a characteristic frequency/amplitude pair (walking, running,
// sitting... analogues); samples draw random phase, small frequency
// wander, amplitude jitter and Gaussian sensor noise.
func HAR(cfg Config, seed int64) *Dataset {
	cfg.validate()
	rng := rand.New(rand.NewSource(seed))
	const classes, axes, steps = 6, 3, 128
	type axisSpec struct{ f, a, bias float64 }
	specs := make([][]axisSpec, classes)
	for cl := range specs {
		specs[cl] = make([]axisSpec, axes)
		for ax := range specs[cl] {
			specs[cl][ax] = axisSpec{
				f:    0.5 + rng.Float64()*6,
				a:    0.2 + rng.Float64()*0.8,
				bias: rng.Float64()*0.6 - 0.3,
			}
		}
	}
	d := &Dataset{Name: "har", Classes: classes, Shape: []int{axes, 1, steps}}
	gen := func(n int) []nn.Sample {
		samples := make([]nn.Sample, n)
		for i := range samples {
			cl := i % classes
			x := tensor.New(axes, 1, steps)
			for ax := 0; ax < axes; ax++ {
				s := specs[cl][ax]
				ph := rng.Float64() * 2 * math.Pi
				fj := s.f * (1 + rng.NormFloat64()*0.05)
				aj := s.a * (0.85 + rng.Float64()*0.3)
				for t := 0; t < steps; t++ {
					v := s.bias + aj*math.Sin(2*math.Pi*fj*float64(t)/steps+ph) +
						rng.NormFloat64()*cfg.Noise
					x.Data[ax*steps+t] = float32(v)
				}
			}
			samples[i] = nn.Sample{X: x, Label: cl}
		}
		return samples
	}
	d.Train = gen(cfg.Train)
	d.Test = gen(cfg.Test)
	return d
}

// ---------------------------------------------------------------------------
// Speech (CKS / keyword-spotting stand-in)

// SpeechConfig returns the calibrated default configuration for the
// keyword task: 12 classes of 10×49 MFCC-like maps.
func SpeechConfig() Config { return Config{Train: 480, Test: 240, Noise: 0.88} }

// Speech generates the 12-class keyword-spotting task. Each keyword is a
// pair of formant trajectories — smooth tracks across the time axis with
// Gaussian energy profiles across the coefficient axis; samples add time
// warping, amplitude jitter and noise.
func Speech(cfg Config, seed int64) *Dataset {
	cfg.validate()
	rng := rand.New(rand.NewSource(seed))
	const classes, coeffs, frames = 12, 10, 49
	type track struct{ start, end, width, amp float64 }
	tracks := make([][]track, classes)
	for cl := range tracks {
		tracks[cl] = make([]track, 2)
		for k := range tracks[cl] {
			tracks[cl][k] = track{
				start: rng.Float64() * float64(coeffs-1),
				end:   rng.Float64() * float64(coeffs-1),
				width: 0.7 + rng.Float64()*1.3,
				amp:   0.5 + rng.Float64()*0.5,
			}
		}
	}
	d := &Dataset{Name: "speech", Classes: classes, Shape: []int{1, coeffs, frames}}
	gen := func(n int) []nn.Sample {
		samples := make([]nn.Sample, n)
		for i := range samples {
			cl := i % classes
			x := tensor.New(1, coeffs, frames)
			warp := 0.9 + rng.Float64()*0.2
			gain := 0.8 + rng.Float64()*0.4
			for _, tr := range tracks[cl] {
				for t := 0; t < frames; t++ {
					pos := math.Min(float64(t)*warp/float64(frames-1), 1)
					center := tr.start + (tr.end-tr.start)*pos
					for c := 0; c < coeffs; c++ {
						dz := (float64(c) - center) / tr.width
						v := tr.amp * gain * math.Exp(-0.5*dz*dz)
						x.Data[c*frames+t] += float32(v)
					}
				}
			}
			for j := range x.Data {
				x.Data[j] += float32(rng.NormFloat64() * cfg.Noise)
			}
			samples[i] = nn.Sample{X: x, Label: cl}
		}
		return samples
	}
	d.Train = gen(cfg.Train)
	d.Test = gen(cfg.Test)
	return d
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
