package main

import (
	"math/bits"
	"time"
)

// The benchmark's host is a shared VM whose speed drifts by a quarter
// or more over minutes as its neighbours come and go: the same sweep
// round ran in 0.72 s and in 0.55 s ten minutes apart, and a pipeline
// round in 15 s and in 20 s. End-to-end times are therefore reported in
// reference-host seconds: each is scaled by refCalibration over the
// median time of a fixed calibration loop timed throughout the same run.
// The loop is the benchmark's own code, so a change to the program moves
// the measured times and never the scale. The unscaled times go to
// standard error.

// refCalibration is calibrate's median time on the host REFERENCE.md
// was measured on, in one of its fast spells.
const refCalibration = 18700 * time.Microsecond

var (
	calA, calB, calC [64 * 64]float32
	calSink          uint64
)

// Calibration samples: calStart before set-up, calPerRound before every
// round and after the last.
const (
	calStart    = 5
	calPerRound = 2
)

// hostSpeed collects calibration samples. factor is refCalibration over
// their median: the host's speed relative to the reference host (below
// 1 when slower), and the number that turns host seconds into
// reference-host seconds.
type hostSpeed struct{ samples []float64 }

func (h *hostSpeed) sample(n int) {
	for i := 0; i < n; i++ {
		h.samples = append(h.samples, calibrate().Seconds())
	}
}

func (h *hostSpeed) factor() float64 { return refCalibration.Seconds() / median(h.samples) }

// calibrate times a fixed loop of integer and floating-point work whose
// data stays in cache.
func calibrate() time.Duration {
	for i := range calA {
		calA[i], calB[i], calC[i] = float32(i%7)-3, float32(i%5)-2, 0
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 5_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += bits.RotateLeft64(x, int(i&63))
	}
	for r := 0; r < 30; r++ {
		for i := 0; i < 64; i++ {
			for p := 0; p < 64; p++ {
				av := calA[i*64+p]
				for j := 0; j < 64; j++ {
					calC[i*64+j] += av * calB[p*64+j]
				}
			}
		}
	}
	calSink = acc + uint64(calC[65])
	return time.Since(t0)
}
