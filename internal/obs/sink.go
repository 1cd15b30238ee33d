package obs

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"text/tabwriter"
)

// WriteFile creates path and renders into it, closing the file and
// propagating the first failure. The Close error matters here: buffered
// writes can surface their I/O error only at close, and a truncated
// artifact silently presented as a successful run is exactly what the
// errcheck analyzer exists to prevent.
func WriteFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return RenderTo(f, render)
}

// RenderTo renders into wc and closes it, propagating the first failure
// — the render error when rendering fails (the artifact is discarded
// either way), otherwise the Close error, where buffered writers
// surface a deferred flush failure. WriteFile is this over os.Create;
// the split exists so the Close-failure contract is testable with an
// error-injecting WriteCloser.
func RenderTo(wc io.WriteCloser, render func(io.Writer) error) error {
	if err := render(wc); err != nil {
		_ = wc.Close() //iprune:allow-err render failed first and wins; the artifact is discarded either way
		return err
	}
	return wc.Close()
}

// layerName resolves a layer index against the caller-provided name
// table (spec names for the cost simulator, net-layer names for the
// functional engine), falling back to a synthetic name.
func layerName(names []string, li int) string {
	if li >= 0 && li < len(names) {
		return names[li]
	}
	return "layer" + strconv.Itoa(li)
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON

// WriteChromeTrace renders a recorded event stream as Chrome trace-event
// JSON. Open the file in https://ui.perfetto.dev (or chrome://tracing):
// ops, layers and the power supply appear as three tracks. Timestamps
// are microseconds of simulated time (the format's native unit), so a
// cost-simulator second becomes 1e6 ticks and an engine preservation
// step 1 tick. It replays the slice through a StreamTracer, so a
// recorded run and a streamed run render the same bytes.
func WriteChromeTrace(w io.Writer, events []Event, names []string) error {
	st := NewStreamTracer(w, names)
	for _, ev := range events {
		st.Emit(ev)
	}
	return st.Close()
}

// ---------------------------------------------------------------------------
// CSV

// csvHeader is the per-layer metrics schema written by WriteCSV.
var csvHeader = []string{
	"layer", "name", "ops", "op_attempts", "reexec_ops", "failures",
	"preserve_writes", "latency_s", "energy_j", "nvm_read_bytes",
	"nvm_write_bytes",
}

func csvRow(label, name string, l *LayerStat) []string {
	return []string{
		label,
		name,
		strconv.FormatInt(l.Ops, 10),
		strconv.FormatInt(l.Starts, 10),
		strconv.FormatInt(l.ReExec, 10),
		strconv.FormatInt(l.Failures, 10),
		strconv.FormatInt(l.Preserves, 10),
		strconv.FormatFloat(l.Latency, 'g', -1, 64),
		strconv.FormatFloat(l.Energy, 'g', -1, 64),
		strconv.FormatInt(l.Read, 10),
		strconv.FormatInt(l.Write, 10),
	}
}

// WriteCSV renders the per-layer run statistics as CSV, one row per
// layer plus a final "total" row. Floats are written with full precision
// so the per-layer latency_s and energy_j columns sum exactly to the
// totals the simulator reported.
func WriteCSV(w io.Writer, s *RunStats, names []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i := range s.Layers {
		l := &s.Layers[i]
		row := csvRow(strconv.Itoa(l.Layer), layerName(names, l.Layer), l)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	if err := cw.Write(csvRow("total", "", &s.Total)); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// histCSVHeader is the long-form histogram schema written by
// WriteHistogramsCSV: one row per bucket.
var histCSVHeader = []string{"histogram", "le", "count", "sum", "n"}

// WriteHistogramsCSV renders every histogram of the registry in a
// machine-readable long form, one CSV row per bucket: `le` is the
// bucket's inclusive upper bound ("+Inf" for the overflow bucket), and
// `sum`/`n` repeat the histogram totals on every row so any single row
// reconstructs the mean. The layout loads directly into pandas/R for
// the paper's latency/energy distribution plots.
func WriteHistogramsCSV(w io.Writer, m *Metrics) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(histCSVHeader); err != nil {
		return err
	}
	for _, h := range m.Histograms() {
		for i, cnt := range h.Counts {
			le := "+Inf"
			if i < len(h.Bounds) {
				le = strconv.FormatFloat(h.Bounds[i], 'g', -1, 64)
			}
			row := []string{
				h.Name,
				le,
				strconv.FormatInt(cnt, 10),
				strconv.FormatFloat(h.Sum, 'g', -1, 64),
				strconv.FormatInt(h.N, 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadHistogramsCSV parses the WriteHistogramsCSV layout back into a
// registry — the round-trip partner used by tests and by tooling that
// post-processes exported runs. Buckets must appear in ascending bound
// order ending with the "+Inf" overflow row, as written.
func ReadHistogramsCSV(r io.Reader) (*Metrics, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("obs: empty histogram CSV")
	}
	if got, want := fmt.Sprint(rows[0]), fmt.Sprint(histCSVHeader); got != want {
		return nil, fmt.Errorf("obs: histogram CSV header %v, want %v", rows[0], histCSVHeader)
	}
	type partial struct {
		bounds []float64
		counts []int64
		sum    float64
		n      int64
		closed bool // overflow row seen
	}
	m := NewMetrics()
	parts := map[string]*partial{}
	var order []string
	for i, row := range rows[1:] {
		if len(row) != len(histCSVHeader) {
			return nil, fmt.Errorf("obs: histogram CSV row %d has %d fields, want %d", i+2, len(row), len(histCSVHeader))
		}
		name := row[0]
		p, ok := parts[name]
		if !ok {
			p = &partial{}
			parts[name] = p
			order = append(order, name)
		}
		if p.closed {
			return nil, fmt.Errorf("obs: histogram %s has buckets after its +Inf row", name)
		}
		cnt, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: histogram CSV row %d: bad count %q", i+2, row[2])
		}
		sum, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: histogram CSV row %d: bad sum %q", i+2, row[3])
		}
		n, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: histogram CSV row %d: bad n %q", i+2, row[4])
		}
		if row[1] == "+Inf" {
			p.closed = true
		} else {
			b, err := strconv.ParseFloat(row[1], 64)
			if err != nil || math.IsNaN(b) {
				return nil, fmt.Errorf("obs: histogram CSV row %d: bad bound %q", i+2, row[1])
			}
			if k := len(p.bounds); k > 0 && b < p.bounds[k-1] {
				return nil, fmt.Errorf("obs: histogram CSV row %d: bound %q of %s is below the previous bound", i+2, row[1], name)
			}
			p.bounds = append(p.bounds, b)
		}
		p.counts = append(p.counts, cnt)
		p.sum, p.n = sum, n
	}
	for _, name := range order {
		p := parts[name]
		if !p.closed {
			return nil, fmt.Errorf("obs: histogram %s missing its +Inf overflow row", name)
		}
		h := m.Histogram(name, p.bounds)
		copy(h.Counts, p.counts)
		h.Sum, h.N = p.sum, p.n
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Terminal summary

// WriteSummary renders a human-readable run summary: the per-layer
// table, power-cycle utilization, and (when a registry is given) every
// counter and histogram. This is what the CLIs print under -v. The
// summary is built in memory and written once, so the only fallible
// write is the final one.
func WriteSummary(w io.Writer, s *RunStats, m *Metrics, names []string) error {
	var buf bytes.Buffer
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fprintln(tw, "layer\tname\tops\treexec\tfail\tlatency\tenergy\tNVM-R\tNVM-W")
	put := func(label, name string, l *LayerStat) {
		fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.4gs\t%.4gmJ\t%s\t%s\n",
			label, name, l.Ops, l.ReExec, l.Failures,
			l.Latency, l.Energy*1e3, fmtBytes(l.Read), fmtBytes(l.Write))
	}
	for i := range s.Layers {
		l := &s.Layers[i]
		put(strconv.Itoa(l.Layer), layerName(names, l.Layer), l)
	}
	put("total", "", &s.Total)
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(s.Cycles) > 0 {
		var util float64
		for i := range s.Cycles {
			util += s.Cycles[i].Utilization()
		}
		fmt.Fprintf(&buf, "power cycles: %d, mean utilization %.1f%%\n",
			len(s.Cycles), 100*util/float64(len(s.Cycles)))
	}
	if m != nil {
		fmt.Fprintln(&buf, "counters:")
		for _, c := range m.Counters() {
			fmt.Fprintf(&buf, "  %-24s %.6g\n", c.Name, c.Value())
		}
		for _, h := range m.Histograms() {
			fmt.Fprintf(&buf, "histogram %s: n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g\n",
				h.Name, h.N, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
			for i, cnt := range h.Counts {
				if cnt == 0 {
					continue
				}
				if i < len(h.Bounds) {
					fmt.Fprintf(&buf, "  <= %-10.4g %d\n", h.Bounds[i], cnt)
				} else {
					fmt.Fprintf(&buf, "  >  %-10.4g %d\n", h.Bounds[len(h.Bounds)-1], cnt)
				}
			}
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// fprintf and fprintln write to the in-memory tabwriter, whose only
// error source is its (in-memory) underlying buffer — unreachable here.
func fprintf(tw *tabwriter.Writer, format string, a ...any) {
	_, _ = fmt.Fprintf(tw, format, a...)
}

func fprintln(tw *tabwriter.Writer, a ...any) {
	_, _ = fmt.Fprintln(tw, a...)
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return strconv.FormatFloat(float64(b)/(1<<20), 'f', 1, 64) + "MiB"
	case b >= 1<<10:
		return strconv.FormatFloat(float64(b)/(1<<10), 'f', 1, 64) + "KiB"
	default:
		return strconv.FormatInt(b, 10) + "B"
	}
}
