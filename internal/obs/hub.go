package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Hub is the fleet-level telemetry collector: many concurrently
// simulated devices each get a Tracer from Device, emit into it from
// their own goroutines, and the Hub merges everything into per-device
// run statistics, fleet rollup metrics and one multi-process Chrome
// trace.
//
// Ownership model: every device has a single owner. Whoever runs a
// device is the only goroutine that emits into it, so Emit appends to
// the device's own buffer on the emitting goroutine with no lock and
// no hand-off. Only the device list is mutex-guarded.
//
// Producers own the shutdown edge: Close may only be called after
// every goroutine that emits into the Hub has been joined, which orders
// all emits before it. Close freezes per-device statistics;
// emits after Close are dropped. The per-device accessors (Stats,
// Metrics) and the fleet views (Rollup, WriteTrace) are valid only
// after Close.
type Hub struct {
	mu     sync.Mutex
	devs   []*HubDevice
	closed atomic.Bool
}

// HubDevice is one device's private lane into the Hub. It implements
// Tracer; hand it to an Engine, CostSim or power.Sim as their trace
// sink.
type HubDevice struct {
	Name string

	hub   *Hub
	names []string  // layer-name table for trace rendering
	rec   *Recorder // written only by the device's owning goroutine
	stats *RunStats
	m     *Metrics
}

// NewHub returns an empty Hub. The int argument is ignored; it is kept
// so existing callers compile unchanged.
func NewHub(int) *Hub { return &Hub{} }

// Device registers a device and returns its tracer lane. names is the
// device's layer-name table, used when rendering the merged trace.
func (h *Hub) Device(name string, names []string) *HubDevice {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Load() {
		panic("obs: Hub.Device after Close")
	}
	d := &HubDevice{Name: name, hub: h, names: names, rec: NewRecorder()}
	h.devs = append(h.devs, d)
	return d
}

// Enabled implements Tracer.
//
//iprune:hotpath
func (d *HubDevice) Enabled() bool { return !d.hub.closed.Load() }

// Emit implements Tracer: an append to the device's own buffer on the
// emitting goroutine. Events emitted after Close are dropped; racing an
// Emit against Close violates the Hub's shutdown contract (producers
// must be joined first).
//
//iprune:hotpath
func (d *HubDevice) Emit(ev Event) {
	if !d.hub.closed.Load() {
		d.rec.Emit(ev)
	}
}

// Close shuts the Hub down and freezes per-device statistics and
// metrics. Idempotent. All producers must have finished emitting before
// Close is called.
func (h *Hub) Close() {
	if h.closed.Swap(true) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.devs {
		d.stats = Collect(d.Events())
		d.m = NewMetrics()
		d.stats.Fill(d.m)
	}
}

// Events returns the device's recorded events. Valid only after Close.
func (d *HubDevice) Events() []Event { return d.rec.Events() }

// Stats returns the device's collected run statistics (nil before
// Close).
func (d *HubDevice) Stats() *RunStats { return d.stats }

// Metrics returns the device's own metrics registry (nil before Close).
func (d *HubDevice) Metrics() *Metrics { return d.m }

// Devices returns the registered devices in registration order.
func (h *Hub) Devices() []*HubDevice {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*HubDevice(nil), h.devs...)
}

// Rollup merges every device's metrics registry into one fleet-level
// registry: counters add, histograms merge bucket-wise, so the fleet
// view keeps real tails (Histogram.Quantile), not averages of
// averages. Valid only after Close.
func (h *Hub) Rollup() *Metrics {
	m := NewMetrics()
	for _, d := range h.Devices() {
		if d.m != nil {
			m.Merge(d.m)
		}
	}
	return m
}

// WriteTrace renders the whole fleet as one Chrome trace: one process
// section per device (named after it) on the shared time axis. Valid
// only after Close.
func (h *Hub) WriteTrace(w io.Writer) error {
	if !h.closed.Load() {
		return fmt.Errorf("obs: Hub.WriteTrace before Close")
	}
	st := NewStreamTracer(w, nil)
	for _, d := range h.Devices() {
		st.NextProcess(d.Name, d.names)
		for _, ev := range d.Events() {
			st.Emit(ev)
		}
	}
	return st.Close()
}
