package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// spansDir is where a traced run writes its spans, relative to the
// directory it runs in; run.sh keeps its build output there too.
const spansDir = ".bench_build/spans"

// profileAll is the traced run. The per-layer table spans all three
// workloads, so it profiles each of them whatever --workload names; the
// workload name only names the spans file. For each workload it times
// one untraced round, then repeats set-up and the round with spans on:
// the difference of the two rounds is the tracing overhead. Set-up and
// rounds use seed, so a traced run sees the inputs an untraced run of
// the same seed does. Its times are host seconds; host.speed is the
// factor an untraced run would scale them by.
func profileAll(name string, seed int64, chk *checks, out io.Writer) (metrics, error) {
	var host hostSpeed
	host.sample(calStart)
	m := metrics{"host.speed": host.factor()}
	tr := newTracer(true)
	for _, wn := range workloadNames {
		w := newWorkload(wn, seed)
		if err := w.setup(newTracer(false)); err != nil {
			return nil, fmt.Errorf("%s setup: %w", wn, err)
		}
		runtime.GC()
		g0 := readGoRuntime()
		t0 := time.Now()
		if _, err := w.round(0, newTracer(false), chk); err != nil {
			return nil, fmt.Errorf("%s round: %w", wn, err)
		}
		untraced := time.Since(t0).Seconds()
		g1 := readGoRuntime()
		m["go.alloc_mb."+wn] = (g1.allocBytes - g0.allocBytes) / 1e6
		m["go.gc_cpu_frac."+wn] = (g1.gcCPU - g0.gcCPU) / (g1.usedCPU - g0.usedCPU)

		from := len(tr.spans)
		root := tr.begin("bench." + wn)
		sp := tr.begin("bench.setup")
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("%s setup: %w", wn, err)
		}
		tr.end(sp)
		runtime.GC()
		sp = tr.begin("bench.round")
		t0 = time.Now()
		if _, err := w.round(0, tr, chk); err != nil {
			return nil, fmt.Errorf("%s round: %w", wn, err)
		}
		m["trace.overhead_s."+wn] = time.Since(t0).Seconds() - untraced
		tr.end(sp)
		sp = tr.begin("bench.layers")
		if err := w.layers(m, tr, from, chk); err != nil {
			return nil, fmt.Errorf("%s layers: %w", wn, err)
		}
		tr.end(sp)
		tr.end(root)
	}
	self := tr.selfTimes()
	for _, l := range selfLayers {
		m["self_s."+l] = self[l]
	}
	m["trace.spans"] = float64(len(tr.spans))
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %s (%d)\n", path, len(tr.spans))
	return m, nil
}
