package obs

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"
)

// Delta is the before→after change of one metric of a diffed run pair.
type Delta struct {
	Before, After float64
	Abs           float64 // After - Before
	Pct           float64 // 100 * Abs / Before; meaningless unless PctValid
	PctValid      bool    // false when Before == 0 (no baseline to divide by)
}

func delta(before, after float64) Delta {
	d := Delta{Before: before, After: after, Abs: after - before}
	if before != 0 {
		d.Pct = 100 * d.Abs / before
		d.PctValid = true
	}
	return d
}

// LayerDiff is the typed per-layer delta between two runs: every
// LayerStat metric as absolute before/after values plus the percent
// change where a baseline exists.
type LayerDiff struct {
	Layer int
	Ops, Starts, ReExec, Failures, Preserves,
	Latency, Energy, Read, Write Delta
}

func diffLayer(li int, before, after *LayerStat) LayerDiff {
	var zero LayerStat
	if before == nil {
		before = &zero
	}
	if after == nil {
		after = &zero
	}
	return LayerDiff{
		Layer:     li,
		Ops:       delta(float64(before.Ops), float64(after.Ops)),
		Starts:    delta(float64(before.Starts), float64(after.Starts)),
		ReExec:    delta(float64(before.ReExec), float64(after.ReExec)),
		Failures:  delta(float64(before.Failures), float64(after.Failures)),
		Preserves: delta(float64(before.Preserves), float64(after.Preserves)),
		Latency:   delta(before.Latency, after.Latency),
		Energy:    delta(before.Energy, after.Energy),
		Read:      delta(float64(before.Read), float64(after.Read)),
		Write:     delta(float64(before.Write), float64(after.Write)),
	}
}

// StatsDiff is the cross-run comparison of two RunStats aggregations:
// the per-layer pruning story (before/after latency, energy, preserves,
// re-executions per layer) that a reader previously assembled by diffing
// two CSVs by hand.
type StatsDiff struct {
	Layers []LayerDiff // union of both runs' layers, sorted by index
	Total  LayerDiff
	Cycles Delta // power-cycle counts (0 on both sides for CSV-loaded runs)
}

// DiffRunStats compares two runs layer by layer. Layers present in only
// one run (a layer pruned away entirely, say) diff against zero. Percent
// changes against a zero baseline are marked invalid rather than
// divided.
func DiffRunStats(before, after *RunStats) *StatsDiff {
	type pair struct{ b, a *LayerStat }
	byLayer := map[int]*pair{}
	for i := range before.Layers {
		l := &before.Layers[i]
		byLayer[l.Layer] = &pair{b: l}
	}
	for i := range after.Layers {
		l := &after.Layers[i]
		p, ok := byLayer[l.Layer]
		if !ok {
			p = &pair{}
			byLayer[l.Layer] = p
		}
		p.a = l
	}
	idx := make([]int, 0, len(byLayer))
	for li := range byLayer {
		idx = append(idx, li)
	}
	sort.Ints(idx)
	d := &StatsDiff{
		Total:  diffLayer(-1, &before.Total, &after.Total),
		Cycles: delta(float64(len(before.Cycles)), float64(len(after.Cycles))),
	}
	for _, li := range idx {
		p := byLayer[li]
		d.Layers = append(d.Layers, diffLayer(li, p.b, p.a))
	}
	return d
}

// fmtDeltaCell renders one before→after cell for the terminal table.
// unit is appended to both values; scale multiplies them for display
// (1e3 for J→mJ).
func fmtDeltaCell(d Delta, scale float64, unit string) string {
	if d.Before == d.After {
		return fmt.Sprintf("%.4g%s", d.Before*scale, unit)
	}
	cell := fmt.Sprintf("%.4g%s -> %.4g%s", d.Before*scale, unit, d.After*scale, unit)
	if d.PctValid {
		return fmt.Sprintf("%s (%+.1f%%)", cell, d.Pct)
	}
	return cell + " (n/a%)"
}

// WriteDiffTable renders a cross-run diff as a terminal table: one row
// per layer plus a total row, the headline intermittent metrics as
// before → after (±percent) cells, and the power-cycle delta when either
// run recorded cycles. Built in memory and written once, like
// WriteSummary.
func WriteDiffTable(w io.Writer, d *StatsDiff, names []string) error {
	var buf bytes.Buffer
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fprintln(tw, "layer\tname\tlatency\tenergy\tpreserves\treexec\tops")
	put := func(label, name string, l *LayerDiff) {
		fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			label, name,
			fmtDeltaCell(l.Latency, 1, "s"),
			fmtDeltaCell(l.Energy, 1e3, "mJ"),
			fmtDeltaCell(l.Preserves, 1, ""),
			fmtDeltaCell(l.ReExec, 1, ""),
			fmtDeltaCell(l.Ops, 1, ""))
	}
	for i := range d.Layers {
		l := &d.Layers[i]
		put(strconv.Itoa(l.Layer), layerName(names, l.Layer), l)
	}
	put("total", "", &d.Total)
	if err := tw.Flush(); err != nil {
		return err
	}
	if d.Cycles.Before != 0 || d.Cycles.After != 0 {
		fmt.Fprintf(&buf, "power cycles: %s\n", fmtDeltaCell(d.Cycles, 1, ""))
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteHistDiffTable renders a cross-run histogram comparison: one row
// per histogram present in either registry, with n, mean and the
// p50/p95/p99 tails as before → after (±percent) cells — the
// distribution-level complement to WriteDiffTable's per-layer means,
// fed by `isim -compare` when both inputs are histogram CSV exports.
func WriteHistDiffTable(w io.Writer, before, after *Metrics) error {
	var buf bytes.Buffer
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fprintln(tw, "histogram\tn\tmean\tp50\tp95\tp99")
	names := make([]string, 0, len(before.Histograms())+len(after.Histograms()))
	seen := map[string]bool{}
	for _, m := range []*Metrics{before, after} {
		for _, h := range m.Histograms() {
			if !seen[h.Name] {
				seen[h.Name] = true
				names = append(names, h.Name)
			}
		}
	}
	get := func(m *Metrics, name string) *Histogram {
		if h, ok := m.hists[name]; ok {
			return h
		}
		return &Histogram{Name: name}
	}
	for _, name := range names {
		b, a := get(before, name), get(after, name)
		q := func(p float64) string { return fmtDeltaCell(delta(b.Quantile(p), a.Quantile(p)), 1, "") }
		fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", name,
			fmtDeltaCell(delta(float64(b.N), float64(a.N)), 1, ""),
			fmtDeltaCell(delta(b.Mean(), a.Mean()), 1, ""),
			q(0.50), q(0.95), q(0.99))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// diffCSVHeader is the long-form cross-run diff schema: one row per
// layer per metric, so the table loads straight into pandas/R without
// a wide-format column explosion.
var diffCSVHeader = []string{"layer", "name", "metric", "before", "after", "delta", "pct"}

// WriteDiffCSV renders a cross-run diff in long form. The metric column
// reuses the WriteCSV schema names; pct is empty when the baseline is
// zero.
func WriteDiffCSV(w io.Writer, d *StatsDiff, names []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(diffCSVHeader); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	put := func(label, name string, l *LayerDiff) error {
		for _, m := range []struct {
			metric string
			d      Delta
		}{
			{"ops", l.Ops}, {"op_attempts", l.Starts}, {"reexec_ops", l.ReExec},
			{"failures", l.Failures}, {"preserve_writes", l.Preserves},
			{"latency_s", l.Latency}, {"energy_j", l.Energy},
			{"nvm_read_bytes", l.Read}, {"nvm_write_bytes", l.Write},
		} {
			pct := ""
			if m.d.PctValid {
				pct = g(m.d.Pct)
			}
			row := []string{label, name, m.metric, g(m.d.Before), g(m.d.After), g(m.d.Abs), pct}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range d.Layers {
		l := &d.Layers[i]
		if err := put(strconv.Itoa(l.Layer), layerName(names, l.Layer), l); err != nil {
			return err
		}
	}
	if err := put("total", "", &d.Total); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// ReadStatsCSV parses the WriteCSV per-layer layout back into a RunStats
// plus its layer-name table — the round-trip partner that lets two
// exported runs be diffed (`isim -compare A.csv B.csv`) without
// re-simulating. Power cycles and the event count are not part of the
// CSV schema and come back zero. Layer indices must be below the number
// of data rows, as in every WriteCSV export.
func ReadStatsCSV(r io.Reader) (*RunStats, []string, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("obs: empty run-stats CSV")
	}
	if got, want := fmt.Sprint(rows[0]), fmt.Sprint(csvHeader); got != want {
		return nil, nil, fmt.Errorf("obs: run-stats CSV header %v, want %v", rows[0], csvHeader)
	}
	s := &RunStats{}
	var names []string
	sawTotal := false
	for i, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			return nil, nil, fmt.Errorf("obs: run-stats CSV row %d has %d fields, want %d", i+2, len(row), len(csvHeader))
		}
		var l LayerStat
		bad := func(col, val string, err error) error {
			return fmt.Errorf("obs: run-stats CSV row %d: bad %s %q: %v", i+2, col, val, err)
		}
		ints := []struct {
			col  int
			dst  *int64
			name string
		}{
			{2, &l.Ops, "ops"}, {3, &l.Starts, "op_attempts"}, {4, &l.ReExec, "reexec_ops"},
			{5, &l.Failures, "failures"}, {6, &l.Preserves, "preserve_writes"},
			{9, &l.Read, "nvm_read_bytes"}, {10, &l.Write, "nvm_write_bytes"},
		}
		for _, c := range ints {
			v, err := strconv.ParseInt(row[c.col], 10, 64)
			if err != nil {
				return nil, nil, bad(c.name, row[c.col], err)
			}
			*c.dst = v
		}
		if l.Latency, err = strconv.ParseFloat(row[7], 64); err != nil {
			return nil, nil, bad("latency_s", row[7], err)
		}
		if l.Energy, err = strconv.ParseFloat(row[8], 64); err != nil {
			return nil, nil, bad("energy_j", row[8], err)
		}
		if row[0] == "total" {
			l.Layer = -1
			s.Total = l
			sawTotal = true
			continue
		}
		li, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, nil, bad("layer index", row[0], err)
		}
		if li >= len(rows)-1 {
			// WriteCSV writes one row per layer, indexed 0..L-1, so a
			// real export never names a layer at or past its row count.
			// The cap bounds the name table by the input's size.
			return nil, nil, fmt.Errorf("obs: run-stats CSV row %d: layer index %d out of range for %d data rows", i+2, li, len(rows)-1)
		}
		l.Layer = li
		s.Layers = append(s.Layers, l)
		for len(names) <= li {
			names = append(names, "")
		}
		if li >= 0 {
			names[li] = row[1]
		}
	}
	if !sawTotal {
		return nil, nil, fmt.Errorf("obs: run-stats CSV missing its total row")
	}
	sort.Slice(s.Layers, func(i, j int) bool { return s.Layers[i].Layer < s.Layers[j].Layer })
	return s, names, nil
}
