package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one seeded benchmark workload.
type workload interface {
	// setup generates the workload's inputs from its seed and builds
	// what its rounds share. It is timed as setup_s.
	setup(tr *tracer) error
	// round runs the timed body once and returns the simulated
	// accelerator ops it completed.
	round(r int, tr *tracer, chk *checks) (int64, error)
	// layers runs after a traced round: it adds the workload's
	// per-layer metrics, reading the spans recorded from index from on,
	// and runs the checks that only the traced run makes.
	layers(m metrics, tr *tracer, from int, chk *checks) error
}

func newWorkload(name string, seed int64) workload {
	switch name {
	case "pipeline":
		return &pipeline{seed: seed}
	case "sweep":
		return &sweep{seed: seed}
	case "fleet":
		return &fleetLoad{seed: seed}
	}
	return nil
}

// Set-up takes milliseconds, and single passes vary by a quarter, so
// setup_s is the median of at least setupPasses passes spanning at least
// setupMinTime.
const (
	setupPasses  = 15
	setupMinTime = 300 * time.Millisecond
)

// measure is the untraced run: set-up passes, then timed rounds until
// the budget is spent. Every figure is a median over rounds — wall and
// CPU time, the RSS high-water mark within the round, the simulated ops
// rate — so it does not depend on how many rounds fit. Times are in
// reference-host seconds (see hostSpeed).
func measure(w workload, seconds int, chk *checks, log io.Writer) (metrics, error) {
	off := newTracer(false)
	var host hostSpeed
	host.sample(calStart)
	var setups []float64
	for start := time.Now(); len(setups) < setupPasses || time.Since(start) < setupMinTime; {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(off); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	budget := time.Duration(seconds) * time.Second
	var walls, cpus, rates, rss []float64
	for start, r := time.Now(), 0; r == 0 || time.Since(start) < budget; r++ {
		// Every round starts from a collected heap with its free pages
		// returned to the kernel, so its peak RSS is its own.
		debug.FreeOSMemory()
		host.sample(calPerRound)
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		c0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ops, err := w.round(r, off, chk)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		c1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		cpus = append(cpus, (c1 - c0).Seconds())
		rates = append(rates, float64(ops)/wall)
		rss = append(rss, peak)
		fmt.Fprintf(log, "round %d: wall %.4f s, cpu %.4f s, peak RSS %.1f MB, %d sim ops\n", r, wall, cpus[r], peak, ops)
	}
	host.sample(calPerRound)
	speed := host.factor()
	fmt.Fprintf(log, "host speed %.4f: calibration median %.3f ms over %d samples; host seconds: setup %.6f, wall %.4f, cpu %.4f\n",
		speed, median(host.samples)*1e3, len(host.samples), median(setups), median(walls), median(cpus))
	return metrics{
		"setup_s":       median(setups) * speed,
		"wall_s":        median(walls) * speed,
		"cpu_s":         median(cpus) * speed,
		"peak_rss_mb":   median(rss),
		"sim_ops_per_s": median(rates) / speed,
	}, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size from the current size (proc(5), clear_refs).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}

// goRuntime is a snapshot of the Go runtime's allocation and CPU
// accounting.
type goRuntime struct {
	allocBytes     float64
	gcCPU, usedCPU float64 // seconds, on the runtime's own CPU clock
	liveBytes      float64
}

func readGoRuntime() goRuntime {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	rtmetrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN() // unsupported by this Go version: report refuses NaN
	}
	return goRuntime{
		allocBytes: val(0),
		gcCPU:      val(1),
		usedCPU:    val(2) - val(3),
		liveBytes:  val(4),
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
