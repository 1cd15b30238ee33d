package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// deviceRun emits one synthetic power cycle of n op commits into tr,
// stamped in seconds/joules so per-cycle energy and utilization are
// exercised end to end.
func deviceRun(tr Tracer, n int) {
	t := 0.0
	tr.Emit(Event{Kind: KindPowerOn, Time: t, Layer: -1, Op: -1})
	tr.Emit(Event{Kind: KindLayerStart, Time: t, Layer: 0})
	for op := 0; op < n; op++ {
		tr.Emit(Event{Kind: KindOpStart, Time: t, Layer: 0, Op: int64(op)})
		tr.Emit(Event{Kind: KindOpCommit, Time: t, Dur: 0.5, Layer: 0, Op: int64(op), Energy: 1e-6, Read: 64})
		t += 0.5
		tr.Emit(Event{Kind: KindPreserve, Time: t, Layer: 0, Op: int64(op), Write: 32})
	}
	tr.Emit(Event{Kind: KindLayerEnd, Time: t, Dur: t, Layer: 0, Energy: float64(n) * 1e-6})
	tr.Emit(Event{Kind: KindPowerOff, Time: t, Layer: -1, Op: -1})
}

// TestHubConcurrentDevices is the -race workout of the Hub's ownership
// model: many devices emitting concurrently from their own goroutines,
// merged into per-device stats, one fleet rollup and one multi-process
// trace.
func TestHubConcurrentDevices(t *testing.T) {
	const devices, opsEach = 8, 50
	h := NewHub(3)
	devs := make([]*HubDevice, devices)
	for i := range devs {
		devs[i] = h.Device(fmt.Sprintf("dev%d", i), []string{"conv"})
	}
	var wg sync.WaitGroup
	for _, d := range devs {
		wg.Add(1)
		go func(d *HubDevice) {
			defer wg.Done()
			deviceRun(d, opsEach)
		}(d)
	}
	wg.Wait()
	h.Close()

	for _, d := range devs {
		s := d.Stats()
		if s == nil {
			t.Fatalf("%s: no stats after Close", d.Name)
		}
		if s.Total.Ops != opsEach {
			t.Errorf("%s: %d ops, want %d", d.Name, s.Total.Ops, opsEach)
		}
		if len(s.Cycles) != 1 {
			t.Errorf("%s: %d cycles, want 1", d.Name, len(s.Cycles))
		}
		// Per-device event order is emission order (the device's own
		// goroutine is the only writer of its buffer).
		evs := d.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].Time < evs[i-1].Time {
				t.Fatalf("%s: event %d out of order", d.Name, i)
			}
		}
	}

	roll := h.Rollup()
	if got := roll.Counter("run/ops").Value(); got != devices*opsEach {
		t.Errorf("rollup ops = %g, want %d", got, devices*opsEach)
	}
	if got := roll.Counter("run/power_cycles").Value(); got != devices {
		t.Errorf("rollup power cycles = %g, want %d", got, devices)
	}
	// The fleet histogram holds every device's observations, so its
	// quantiles are real tails, not averages of averages.
	var hist *Histogram
	for _, hh := range roll.Histograms() {
		if hh.Name == "layer_latency_s" {
			hist = hh
		}
	}
	if hist == nil || hist.N != devices {
		t.Fatalf("rollup layer_latency_s has N=%v, want %d", hist, devices)
	}

	var buf strings.Builder
	if err := h.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &tr); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v", err)
	}
	procs := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Name == "process_name" {
			if n, ok := ev.Args["name"].(string); ok {
				procs[n] = ev.Pid
			}
		}
	}
	pids := map[int]bool{}
	for _, d := range devs {
		pid, ok := procs[d.Name]
		if !ok {
			t.Fatalf("fleet trace missing a section for %s (got %v)", d.Name, procs)
		}
		pids[pid] = true
	}
	if len(pids) != devices {
		t.Errorf("device sections share pids: %v", procs)
	}
}

func TestHubLifecycle(t *testing.T) {
	h := NewHub(0)
	d := h.Device("only", nil)
	if !d.Enabled() {
		t.Error("device disabled before Close")
	}
	if err := h.WriteTrace(&strings.Builder{}); err == nil {
		t.Error("WriteTrace before Close must error")
	}
	deviceRun(d, 1)
	h.Close()
	h.Close() // idempotent
	if d.Enabled() {
		t.Error("device still enabled after Close")
	}
	n := len(d.Events())
	d.Emit(Event{Kind: KindOpCommit}) // dropped, not deadlocked
	if len(d.Events()) != n {
		t.Error("emit after Close was not dropped")
	}
	defer func() {
		if recover() == nil {
			t.Error("Device after Close must panic")
		}
	}()
	h.Device("late", nil)
}

// TestHubCloseDrainsBufferedEvents pins that Close is a freeze, not a
// discard: every event emitted before Close is recorded and collected.
func TestHubCloseDrainsBufferedEvents(t *testing.T) {
	h := NewHub(2)
	d := h.Device("drain", nil)
	const n = 100
	for i := 0; i < n; i++ {
		d.Emit(Event{Kind: KindOpCommit, Time: float64(i)})
	}
	h.Close()
	if got := len(d.Events()); got != n {
		t.Fatalf("recorded %d events, want %d (Close dropped emitted events)", got, n)
	}
	if d.Stats() == nil || d.Metrics() == nil {
		t.Fatal("Stats/Metrics nil after Close")
	}
}

// TestHubAccessorsNilBeforeClose pins that per-device statistics are a
// Close-time product: reading them mid-run returns nil rather than a
// torn snapshot.
func TestHubAccessorsNilBeforeClose(t *testing.T) {
	h := NewHub(1)
	d := h.Device("early", nil)
	deviceRun(d, 3)
	if d.Stats() != nil || d.Metrics() != nil {
		t.Error("Stats/Metrics non-nil before Close")
	}
	h.Close()
	if d.Stats() == nil || d.Metrics() == nil {
		t.Error("Stats/Metrics nil after Close")
	}
}

// BenchmarkHubEmit measures the producer-side emit path: one guarded
// append to the device's own buffer, with no lock.
func BenchmarkHubEmit(b *testing.B) {
	h := NewHub(1)
	d := h.Device("bench", nil)
	ev := Event{Kind: KindOpCommit, Time: 1, Dur: 0.5, Layer: 0, Op: 1, Energy: 1e-6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Emit(ev)
	}
	b.StopTimer()
	h.Close()
}
