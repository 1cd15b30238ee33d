package obs

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if got := KindPowerOn.String(); got != "power-on" {
		t.Errorf("KindPowerOn = %q", got)
	}
	if got := KindLayerEnd.String(); got != "layer-end" {
		t.Errorf("KindLayerEnd = %q", got)
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Errorf("Kind(200) = %q", got)
	}
	for k := KindPowerOn; k <= KindLayerEnd; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("recorder must be enabled")
	}
	r.Emit(Event{Kind: KindPowerOn, Time: 1})
	r.Emit(Event{Kind: KindPowerOff, Time: 2})
	if n := len(r.Events()); n != 2 {
		t.Fatalf("got %d events, want 2", n)
	}
	if r.Events()[1].Kind != KindPowerOff {
		t.Errorf("event order not preserved")
	}
	r.Reset()
	if n := len(r.Events()); n != 0 {
		t.Errorf("Reset left %d events", n)
	}
}

// TestRecorderResetPreservesSnapshots is the regression test for the
// Reset-clobbering bug: Events() slices taken before a Reset must keep
// their contents when the recorder is reused, and must not observe
// events emitted afterwards.
func TestRecorderResetPreservesSnapshots(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{Kind: KindPowerOn, Time: 1})
	r.Emit(Event{Kind: KindPowerOff, Time: 2})
	snap := r.Events()
	r.Reset()
	r.Emit(Event{Kind: KindFailure, Time: 99})
	r.Emit(Event{Kind: KindCharge, Time: 100})
	if len(snap) != 2 {
		t.Fatalf("snapshot length changed to %d", len(snap))
	}
	if snap[0].Kind != KindPowerOn || snap[0].Time != 1 ||
		snap[1].Kind != KindPowerOff || snap[1].Time != 2 {
		t.Errorf("snapshot clobbered by post-Reset emissions: %+v", snap)
	}
	if got := r.Events(); len(got) != 2 || got[0].Kind != KindFailure {
		t.Errorf("post-Reset recording wrong: %+v", got)
	}
}

func TestEnergyClockStepMonotonic(t *testing.T) {
	r := NewRecorder()
	c := EnergyClock{T: r} // nil Pricer: one step per event
	if !c.Enabled() {
		t.Fatal("step clock with recorder must be enabled")
	}
	for i := 0; i < 5; i++ {
		c.Emit(KindPreserve, 0, int64(i), 0, 0, 16)
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time <= evs[i-1].Time {
			t.Errorf("timestamps not strictly monotonic: %g then %g", evs[i-1].Time, evs[i].Time)
		}
	}
}

func TestEnergyClockStepDisabled(t *testing.T) {
	var c EnergyClock // zero value: nil tracer
	if c.Enabled() {
		t.Error("zero EnergyClock must be disabled")
	}
	c.Emit(KindPreserve, 0, 0, 0, 0, 0) // must not panic
	c = EnergyClock{T: Nop{}}
	if c.Enabled() {
		t.Error("EnergyClock over Nop must be disabled")
	}
}

// TestNopZeroAlloc is the tentpole overhead guarantee: a disabled tracer
// on the hot path constructs nothing and allocates nothing.
func TestNopZeroAlloc(t *testing.T) {
	var tr Tracer = Nop{}
	clk := &EnergyClock{T: Nop{}}
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			tr.Emit(Event{Kind: KindOpCommit})
		}
		clk.Emit(KindPreserve, 1, 2, 0, 64, 64)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("a")
	c.Add(1.5)
	m.Counter("a").AddInt(2) // same counter, get-or-create
	if got := m.Counter("a").Value(); got != 3.5 {
		t.Errorf("counter = %g, want 3.5", got)
	}
	m.Counter("b")
	cs := m.Counters()
	if len(cs) != 2 || cs[0].Name != "a" || cs[1].Name != "b" {
		t.Errorf("counters not in registration order: %v", cs)
	}
}

func TestMetricsHistogram(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	// 0.5 and 1 land in <=1, 5 in <=10, 100 overflows.
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Errorf("counts = %v, want [2 1 1]", h.Counts)
	}
	if h.N != 4 || math.Abs(h.Mean()-106.5/4) > 1e-12 {
		t.Errorf("n=%d mean=%g", h.N, h.Mean())
	}
	// Re-lookup reuses the existing buckets.
	if h2 := m.Histogram("lat", nil); h2 != h {
		t.Error("histogram lookup did not reuse existing")
	}
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds must panic")
		}
	}()
	m.Histogram("bad", []float64{2, 1})
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("x", LatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.25) })
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f, want 0", allocs)
	}
}

// syntheticRun builds a two-layer run with one power cycle boundary
// inside layer 1, exercising layer attribution of layer-less power
// events.
func syntheticRun() []Event {
	return []Event{
		{Kind: KindPowerOn, Time: 0, Layer: -1, Op: -1},
		{Kind: KindLayerStart, Time: 0, Layer: 0, Op: -1},
		{Kind: KindOpStart, Time: 0, Layer: 0, Op: 0},
		{Kind: KindOpCommit, Time: 0, Dur: 1, Layer: 0, Op: 0, Energy: 2e-4, Read: 128},
		{Kind: KindPreserve, Time: 1, Layer: 0, Op: 0, Write: 64},
		{Kind: KindLayerEnd, Time: 1, Dur: 1, Layer: 0, Energy: 2e-4},
		{Kind: KindLayerStart, Time: 1, Layer: 1, Op: -1},
		{Kind: KindOpStart, Time: 1, Layer: 1, Op: 1},
		{Kind: KindFailure, Time: 1.5, Layer: -1, Op: -1},
		{Kind: KindPowerOff, Time: 1.5, Layer: -1, Op: -1},
		{Kind: KindCharge, Time: 1.5, Dur: 2, Layer: -1, Op: -1},
		{Kind: KindPowerOn, Time: 3.5, Layer: -1, Op: -1},
		{Kind: KindRecovery, Time: 3.5, Dur: 0.1, Layer: 1, Op: 1, Read: 32},
		{Kind: KindReExec, Time: 3.6, Layer: 1, Op: 1},
		{Kind: KindOpStart, Time: 3.6, Layer: 1, Op: 1},
		{Kind: KindOpCommit, Time: 3.6, Dur: 1, Layer: 1, Op: 1, Energy: 3e-4, Read: 256},
		{Kind: KindPreserve, Time: 4.6, Layer: 1, Op: 1, Write: 96},
		{Kind: KindLayerEnd, Time: 4.6, Dur: 3.6, Layer: 1, Energy: 3e-4},
		{Kind: KindPowerOff, Time: 4.6, Layer: -1, Op: -1},
	}
}

func TestCollect(t *testing.T) {
	s := Collect(syntheticRun())
	if len(s.Layers) != 2 {
		t.Fatalf("got %d layers, want 2", len(s.Layers))
	}
	l0, l1 := s.Layers[0], s.Layers[1]
	if l0.Layer != 0 || l1.Layer != 1 {
		t.Fatalf("layer order: %d, %d", l0.Layer, l1.Layer)
	}
	if l0.Ops != 1 || l0.Starts != 1 || l0.Failures != 0 || l0.Read != 128 || l0.Write != 64 {
		t.Errorf("layer0 = %+v", l0)
	}
	// The failure happened while layer 1 was current, so it is attributed
	// there despite the event itself carrying layer -1.
	if l1.Failures != 1 {
		t.Errorf("layer1 failures = %d, want 1 (attribution of layer-less events)", l1.Failures)
	}
	if l1.Ops != 1 || l1.Starts != 2 || l1.ReExec != 1 {
		t.Errorf("layer1 = %+v", l1)
	}
	if l1.Read != 256+32 || l1.Write != 96 {
		t.Errorf("layer1 NVM = %d/%d", l1.Read, l1.Write)
	}
	if s.Total.Ops != 2 || s.Total.Failures != 1 {
		t.Errorf("total = %+v", s.Total)
	}
	if math.Abs(s.Total.Latency-4.6) > 1e-12 {
		t.Errorf("total latency = %g, want 4.6", s.Total.Latency)
	}
	if math.Abs(s.Total.Energy-5e-4) > 1e-18 {
		t.Errorf("total energy = %g, want 5e-4", s.Total.Energy)
	}
	if len(s.Cycles) != 2 {
		t.Fatalf("got %d cycles, want 2", len(s.Cycles))
	}
	c0 := s.Cycles[0]
	if math.Abs(c0.OnTime-1.5) > 1e-12 || math.Abs(c0.OffTime-2) > 1e-12 {
		t.Errorf("cycle0 = %+v", c0)
	}
	if u := c0.Utilization(); math.Abs(u-1.5/3.5) > 1e-12 {
		t.Errorf("utilization = %g", u)
	}
}

func TestFill(t *testing.T) {
	s := Collect(syntheticRun())
	m := NewMetrics()
	s.Fill(m)
	checks := map[string]float64{
		"run/ops":          2,
		"run/op_attempts":  3,
		"run/reexec_ops":   1,
		"run/failures":     1,
		"run/power_cycles": 2,
		"run/reexec_ratio": 0.5,
	}
	for name, want := range checks {
		if got := m.Counter(name).Value(); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if h := m.Histogram("layer_latency_s", nil); h.N != 2 {
		t.Errorf("latency histogram n = %d, want 2", h.N)
	}
	if h := m.Histogram("cycle_utilization", nil); h.N != 2 {
		t.Errorf("utilization histogram n = %d, want 2", h.N)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, syntheticRun(), []string{"conv1", "fc1"}); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", tr.Unit)
	}
	var spans, instants, meta int
	names := map[string]bool{}
	for _, e := range tr.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "X":
			spans++
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", ph)
		}
		if n, ok := e["name"].(string); ok {
			names[n] = true
		}
		if _, ok := e["pid"]; !ok {
			t.Error("event missing pid")
		}
	}
	if meta != 3 {
		t.Errorf("got %d metadata events, want 3 thread names", meta)
	}
	// 19 events: 2 LayerStart skipped, +3 metadata.
	if got := len(tr.TraceEvents); got != 19-2+3 {
		t.Errorf("got %d chrome events, want 20", got)
	}
	// Layer spans must carry the caller's names.
	if !names["conv1"] || !names["fc1"] {
		t.Errorf("layer names missing from trace: %v", names)
	}
	if spans == 0 || instants == 0 {
		t.Errorf("spans=%d instants=%d, want both > 0", spans, instants)
	}
}

func TestWriteCSVSums(t *testing.T) {
	s := Collect(syntheticRun())
	var sb strings.Builder
	if err := WriteCSV(&sb, s, []string{"conv1", "fc1"}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(rows) != 1+2+1 { // header, two layers, total
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	if got := strings.Join(rows[0], ","); got != strings.Join(csvHeader, ",") {
		t.Errorf("header = %q", got)
	}
	col := func(name string) int {
		for i, h := range csvHeader {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad float %q: %v", s, err)
		}
		return v
	}
	for _, name := range []string{"latency_s", "energy_j", "nvm_read_bytes", "nvm_write_bytes"} {
		c := col(name)
		sum := parse(rows[1][c]) + parse(rows[2][c])
		total := parse(rows[3][c])
		if math.Abs(sum-total) > 1e-15*math.Max(1, math.Abs(total)) {
			t.Errorf("%s: layer sum %g != total %g", name, sum, total)
		}
	}
	if rows[3][0] != "total" {
		t.Errorf("last row label = %q", rows[3][0])
	}
}

func TestWriteSummary(t *testing.T) {
	s := Collect(syntheticRun())
	m := NewMetrics()
	s.Fill(m)
	var sb strings.Builder
	if err := WriteSummary(&sb, s, m, []string{"conv1", "fc1"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"conv1", "fc1", "total", "power cycles: 2", "run/ops", "histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Nil metrics skips the counter section without failing.
	sb.Reset()
	if err := WriteSummary(&sb, s, nil, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "counters:") {
		t.Error("nil metrics must skip the counter section")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0B",
		512:     "512B",
		2048:    "2.0KiB",
		1 << 21: "2.0MiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestLayerName(t *testing.T) {
	names := []string{"conv1"}
	if got := layerName(names, 0); got != "conv1" {
		t.Errorf("layerName(0) = %q", got)
	}
	if got := layerName(names, 3); got != "layer3" {
		t.Errorf("layerName(3) = %q", got)
	}
	if got := layerName(nil, -1); got != "layer-1" {
		t.Errorf("layerName(-1) = %q", got)
	}
}
