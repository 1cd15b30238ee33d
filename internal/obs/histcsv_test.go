package obs

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramsCSVRoundTrip(t *testing.T) {
	m := NewMetrics()
	lat := m.Histogram("latency_s", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.05, 3} {
		lat.Observe(v)
	}
	eng := m.Histogram("energy_j", []float64{1e-6, 1e-3})
	eng.Observe(5e-7)
	eng.Observe(2) // overflow

	var buf bytes.Buffer
	if err := WriteHistogramsCSV(&buf, m); err != nil {
		t.Fatalf("WriteHistogramsCSV: %v", err)
	}

	// One header row plus one row per bucket (bounds+1 each).
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := 1 + 4 + 3; len(lines) != want {
		t.Fatalf("got %d CSV lines, want %d:\n%s", len(lines), want, buf.String())
	}
	if lines[0] != "histogram,le,count,sum,n" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(buf.String(), "latency_s,+Inf,1,") {
		t.Errorf("overflow row missing +Inf bound:\n%s", buf.String())
	}

	got, err := ReadHistogramsCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadHistogramsCSV: %v", err)
	}
	hs, want := got.Histograms(), m.Histograms()
	if len(hs) != len(want) {
		t.Fatalf("round-trip histogram count = %d, want %d", len(hs), len(want))
	}
	for i, h := range hs {
		w := want[i]
		if h.Name != w.Name || !reflect.DeepEqual(h.Bounds, w.Bounds) ||
			!reflect.DeepEqual(h.Counts, w.Counts) || h.N != w.N ||
			math.Abs(h.Sum-w.Sum) > 1e-12 {
			t.Errorf("round-trip mismatch for %s:\n got %+v\nwant %+v", w.Name, h, w)
		}
	}
}

func TestReadHistogramsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "a,b,c\n",
		"short row":   "histogram,le,count,sum,n\nh,1,2\n",
		"bad count":   "histogram,le,count,sum,n\nh,1,x,0,0\n",
		"bad bound":   "histogram,le,count,sum,n\nh,y,1,0,1\n",
		"missing inf": "histogram,le,count,sum,n\nh,1,1,0,1\n",
		"rows after inf": "histogram,le,count,sum,n\n" +
			"h,+Inf,1,0,1\nh,2,0,0,1\n",
	}
	for name, in := range cases {
		if _, err := ReadHistogramsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	m := NewMetrics()
	m.Histogram("h", []float64{1}).Observe(0.5)
	if err := WriteFile(path, func(w io.Writer) error { return WriteHistogramsCSV(w, m) }); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "histogram,le,count,sum,n") {
		t.Errorf("file content = %q", data)
	}

	// A failing render propagates its error and still leaves no dangling
	// file descriptor (Close runs on the error path).
	wantErr := errors.New("render failed")
	if err := WriteFile(filepath.Join(dir, "fail.csv"), func(io.Writer) error { return wantErr }); err != wantErr {
		t.Errorf("WriteFile render error = %v, want %v", err, wantErr)
	}

	// An uncreatable path fails at os.Create.
	if err := WriteFile(filepath.Join(dir, "no/such/dir/x.csv"), func(io.Writer) error { return nil }); err == nil {
		t.Error("WriteFile into missing directory: want error")
	}
}

// TestReadHistogramsCSVUnsortedBounds is the regression test for bucket
// bounds out of order: the parser must return an error naming the row,
// not hand the bounds to Metrics.Histogram, which panics on them.
func TestReadHistogramsCSVUnsortedBounds(t *testing.T) {
	in := "histogram,le,count,sum,n\nh,2,0,0,0\nh,1,0,0,0\nh,+Inf,0,0,0\n"
	_, err := ReadHistogramsCSV(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("ReadHistogramsCSV = %v, want an error naming row 3", err)
	}
	nan := "histogram,le,count,sum,n\nh,1,0,0,0\nh,NaN,0,0,0\nh,+Inf,0,0,0\n"
	if _, err := ReadHistogramsCSV(strings.NewReader(nan)); err == nil {
		t.Fatal("ReadHistogramsCSV accepted a NaN bound")
	}
	// Equal neighbouring bounds are sorted, as Metrics.Histogram accepts.
	dup := "histogram,le,count,sum,n\nh,1,0,0,0\nh,1,0,0,0\nh,+Inf,0,0,0\n"
	if _, err := ReadHistogramsCSV(strings.NewReader(dup)); err != nil {
		t.Fatalf("ReadHistogramsCSV rejected equal bounds: %v", err)
	}
}
