package obs

import (
	"encoding/csv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// diffFixture is the hand-computed two-layer pair: layer 0 halves every
// metric, layer 1 exists only before (pruned away), layer 2 only after.
// Cycles shrink 3 → 2.
func diffFixture() (*RunStats, *RunStats) {
	before := &RunStats{
		Layers: []LayerStat{
			{Layer: 0, Ops: 10, Starts: 12, ReExec: 2, Failures: 2, Preserves: 10, Latency: 2, Energy: 0.004, Read: 1024, Write: 2048},
			{Layer: 1, Ops: 8, Starts: 8, Preserves: 8, Latency: 1, Energy: 0.002, Read: 512, Write: 1024},
		},
		Cycles: make([]CycleStat, 3),
		Total:  LayerStat{Layer: -1, Ops: 18, Starts: 20, ReExec: 2, Failures: 2, Preserves: 18, Latency: 3, Energy: 0.006, Read: 1536, Write: 3072},
	}
	after := &RunStats{
		Layers: []LayerStat{
			{Layer: 0, Ops: 5, Starts: 6, ReExec: 1, Failures: 1, Preserves: 5, Latency: 1, Energy: 0.002, Read: 512, Write: 1024},
			{Layer: 2, Ops: 4, Starts: 4, Preserves: 4, Latency: 0.5, Energy: 0.001, Read: 256, Write: 512},
		},
		Cycles: make([]CycleStat, 2),
		Total:  LayerStat{Layer: -1, Ops: 9, Starts: 10, ReExec: 1, Failures: 1, Preserves: 9, Latency: 1.5, Energy: 0.003, Read: 768, Write: 1536},
	}
	return before, after
}

func TestDiffRunStatsHandComputed(t *testing.T) {
	before, after := diffFixture()
	d := DiffRunStats(before, after)
	if len(d.Layers) != 3 {
		t.Fatalf("got %d layer diffs, want the union of 3 layers", len(d.Layers))
	}
	check := func(name string, got Delta, wantBefore, wantAfter, wantAbs, wantPct float64, wantValid bool) {
		t.Helper()
		if got.Before != wantBefore || got.After != wantAfter {
			t.Errorf("%s: before/after = %g/%g, want %g/%g", name, got.Before, got.After, wantBefore, wantAfter)
		}
		if math.Abs(got.Abs-wantAbs) > 1e-12 {
			t.Errorf("%s: abs = %g, want %g", name, got.Abs, wantAbs)
		}
		if got.PctValid != wantValid {
			t.Errorf("%s: PctValid = %v, want %v", name, got.PctValid, wantValid)
		}
		if wantValid && math.Abs(got.Pct-wantPct) > 1e-12 {
			t.Errorf("%s: pct = %g, want %g", name, got.Pct, wantPct)
		}
	}
	// Layer 0: 10→5 ops is -5 (-50%), 2s→1s latency, 4mJ→2mJ energy,
	// 10→5 preserves, 2→1 re-executions — all hand-checked.
	l0 := d.Layers[0]
	if l0.Layer != 0 {
		t.Fatalf("first diff is layer %d", l0.Layer)
	}
	check("l0.Ops", l0.Ops, 10, 5, -5, -50, true)
	check("l0.Latency", l0.Latency, 2, 1, -1, -50, true)
	check("l0.Energy", l0.Energy, 0.004, 0.002, -0.002, -50, true)
	check("l0.Preserves", l0.Preserves, 10, 5, -5, -50, true)
	check("l0.ReExec", l0.ReExec, 2, 1, -1, -50, true)
	check("l0.Starts", l0.Starts, 12, 6, -6, -50, true)
	check("l0.Failures", l0.Failures, 2, 1, -1, -50, true)
	check("l0.Read", l0.Read, 1024, 512, -512, -50, true)
	check("l0.Write", l0.Write, 2048, 1024, -1024, -50, true)
	// Layer 1 exists only before: diffs to zero, -100%.
	l1 := d.Layers[1]
	if l1.Layer != 1 {
		t.Fatalf("second diff is layer %d", l1.Layer)
	}
	check("l1.Ops", l1.Ops, 8, 0, -8, -100, true)
	check("l1.Latency", l1.Latency, 1, 0, -1, -100, true)
	// Layer 2 exists only after: zero baseline, percent invalid.
	l2 := d.Layers[2]
	if l2.Layer != 2 {
		t.Fatalf("third diff is layer %d", l2.Layer)
	}
	check("l2.Ops", l2.Ops, 0, 4, 4, 0, false)
	check("l2.Energy", l2.Energy, 0, 0.001, 0.001, 0, false)
	// Totals: 18→9 ops (-50%), 3s→1.5s, 6mJ→3mJ; cycles 3→2.
	check("total.Ops", d.Total.Ops, 18, 9, -9, -50, true)
	check("total.Latency", d.Total.Latency, 3, 1.5, -1.5, -50, true)
	check("total.Energy", d.Total.Energy, 0.006, 0.003, -0.003, -50, true)
	check("cycles", d.Cycles, 3, 2, -1, -100.0/3, true)
}

func TestWriteDiffTable(t *testing.T) {
	before, after := diffFixture()
	d := DiffRunStats(before, after)
	var sb strings.Builder
	if err := WriteDiffTable(&sb, d, []string{"conv1", "fc1", "fc2"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"conv1", "fc1", "fc2", "total",
		"2s -> 1s (-50.0%)",   // layer 0 latency
		"4mJ -> 2mJ (-50.0%)", // layer 0 energy
		"10 -> 5 (-50.0%)",    // layer 0 preserves/ops
		"8 -> 0 (-100.0%)",    // layer 1 pruned away
		"0 -> 4 (n/a%)",       // layer 2 zero baseline: no percent
		"power cycles: 3 -> 2 (-33.3%)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff table missing %q:\n%s", want, out)
		}
	}
	// Equal before/after collapses to a single value cell.
	same := DiffRunStats(before, before)
	sb.Reset()
	if err := WriteDiffTable(&sb, same, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "->") {
		t.Errorf("self-diff must not render arrows:\n%s", sb.String())
	}
}

func TestWriteDiffCSV(t *testing.T) {
	before, after := diffFixture()
	d := DiffRunStats(before, after)
	var sb strings.Builder
	if err := WriteDiffCSV(&sb, d, []string{"conv1", "fc1", "fc2"}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	// Header + 9 metrics for each of 3 layers + total.
	if len(rows) != 1+9*4 {
		t.Fatalf("got %d rows, want %d", len(rows), 1+9*4)
	}
	if got := strings.Join(rows[0], ","); got != strings.Join(diffCSVHeader, ",") {
		t.Errorf("header = %q", got)
	}
	cell := map[[2]string][]string{}
	for _, row := range rows[1:] {
		cell[[2]string{row[0], row[2]}] = row
	}
	if row := cell[[2]string{"0", "latency_s"}]; row[3] != "2" || row[4] != "1" || row[5] != "-1" || row[6] != "-50" {
		t.Errorf("layer0 latency row = %v", row)
	}
	if row := cell[[2]string{"2", "ops"}]; row[6] != "" {
		t.Errorf("zero-baseline pct must be empty, got %q", row[6])
	}
	if row := cell[[2]string{"total", "energy_j"}]; row[5] != "-0.003" {
		t.Errorf("total energy delta = %q", row[5])
	}
}

// TestReadStatsCSVRoundTrip pins -compare's loader against WriteCSV: a
// collected run exported and re-imported must diff as a no-op.
func TestReadStatsCSVRoundTrip(t *testing.T) {
	s := Collect(syntheticRun())
	names := []string{"conv1", "fc1"}
	var sb strings.Builder
	if err := WriteCSV(&sb, s, names); err != nil {
		t.Fatal(err)
	}
	got, gotNames, err := ReadStatsCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Layers, s.Layers) {
		t.Errorf("layers round-trip mismatch:\n got %+v\nwant %+v", got.Layers, s.Layers)
	}
	if !reflect.DeepEqual(got.Total, s.Total) {
		t.Errorf("total round-trip mismatch:\n got %+v\nwant %+v", got.Total, s.Total)
	}
	if !reflect.DeepEqual(gotNames, names) {
		t.Errorf("names = %v, want %v", gotNames, names)
	}
	d := DiffRunStats(s, got)
	for _, l := range append(d.Layers, d.Total) {
		if l.Latency.Abs != 0 || l.Ops.Abs != 0 || l.Energy.Abs != 0 {
			t.Errorf("round-trip self-diff not zero at layer %d: %+v", l.Layer, l)
		}
	}
}

func TestReadStatsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "a,b,c\n",
		"short row":     strings.Join(csvHeader, ",") + "\n0,conv1,1\n",
		"bad int":       strings.Join(csvHeader, ",") + "\n0,conv1,x,0,0,0,0,0,0,0,0\ntotal,,0,0,0,0,0,0,0,0,0\n",
		"bad float":     strings.Join(csvHeader, ",") + "\n0,conv1,0,0,0,0,0,x,0,0,0\ntotal,,0,0,0,0,0,0,0,0,0\n",
		"bad layer idx": strings.Join(csvHeader, ",") + "\nzero,conv1,0,0,0,0,0,0,0,0,0\ntotal,,0,0,0,0,0,0,0,0,0\n",
		"missing total": strings.Join(csvHeader, ",") + "\n0,conv1,0,0,0,0,0,0,0,0,0\n",
	}
	for name, in := range cases {
		if _, _, err := ReadStatsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadStatsCSV accepted malformed input", name)
		}
	}
}

// TestReadStatsCSVHugeLayerIndex is the regression test for a tiny file
// naming a huge layer index: the parser used to grow its name table to
// that index. It must return an error and allocate in proportion to the
// input, not to the index.
func TestReadStatsCSVHugeLayerIndex(t *testing.T) {
	in := strings.Join(csvHeader, ",") + "\n20000000,x,0,0,0,0,0,0,0,0,0\ntotal,,0,0,0,0,0,0,0,0,0\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadStatsCSV(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("ReadStatsCSV = %v, want a layer-index range error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("ReadStatsCSV allocated %d bytes for a %d-byte input", got, len(in))
	}
}
