package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iprune"
)

// TestSupplyParsing pins the -power flag grammar end to end as the CLI
// resolves it: the paper's named operating points, custom milliwatt
// values, and rejection of malformed inputs.
func TestSupplyParsing(t *testing.T) {
	good := []struct {
		in    string
		watts float64
	}{
		{"continuous", 1.65},
		{"strong", 8e-3},
		{"weak", 4e-3},
		{"Weak", 4e-3},
		{"6mW", 6e-3},
		{"6mw", 6e-3},
		{"0.25mW", 0.25e-3},
	}
	for _, c := range good {
		sup, err := iprune.ParseSupply(c.in)
		if err != nil {
			t.Errorf("-power %s: %v", c.in, err)
			continue
		}
		if math.Abs(sup.Power-c.watts) > 1e-15 {
			t.Errorf("-power %s: %g W, want %g W", c.in, sup.Power, c.watts)
		}
	}
	for _, in := range []string{"", "mains", "6", "6w", "0mW", "-2mW", "NaNmW", "InfmW", "xmW"} {
		if sup, err := iprune.ParseSupply(in); err == nil {
			t.Errorf("-power %s: accepted as %+v, want error", in, sup)
		}
	}
	// Named supplies resolve to the package-level operating points, so a
	// scripted `-power weak` is exactly the paper's 4 mW point.
	if sup, _ := iprune.ParseSupply("weak"); sup != iprune.WeakPower {
		t.Errorf("weak resolved to %+v", sup)
	}
}

// TestCompareCSVs drives the -compare mode end to end: two simulated
// runs exported via the -metrics schema, loaded back and diffed.
func TestCompareCSVs(t *testing.T) {
	net, err := iprune.BuildModel("HAR", 2)
	if err != nil {
		t.Fatal(err)
	}
	names := iprune.PrunableLayerNames(net)
	dir := t.TempDir()
	write := func(name string, sup iprune.Supply) string {
		rec := iprune.NewTraceRecorder()
		iprune.SimulateObserved(net, sup, 2, rec)
		path := filepath.Join(dir, name)
		err := iprune.WriteArtifact(path, func(w io.Writer) error {
			return iprune.WriteTraceCSV(w, iprune.CollectTrace(rec.Events()), names)
		})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("strong.csv", iprune.StrongPower)
	b := write("weak.csv", iprune.WeakPower)

	var sb strings.Builder
	if err := compareCSVs(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range append([]string{"total", "->"}, names...) {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	// Self-compare renders without arrows (no metric changed).
	sb.Reset()
	if err := compareCSVs(&sb, a, a); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "->") {
		t.Errorf("self-compare must not show changes:\n%s", sb.String())
	}
	if err := compareCSVs(io.Discard, a, filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("compare must surface a missing input file")
	}
}

func TestWriteArtifactWritesAndPropagatesErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	err := iprune.WriteArtifact(path, func(w io.Writer) error {
		_, err := w.Write([]byte("ok"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "ok" {
		t.Fatalf("read back %q, %v", data, err)
	}

	sentinel := errors.New("render failed")
	err = iprune.WriteArtifact(filepath.Join(t.TempDir(), "bad.txt"), func(io.Writer) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("WriteArtifact swallowed the render error: %v", err)
	}

	if err := iprune.WriteArtifact(filepath.Join(t.TempDir(), "no", "such", "dir.txt"), func(io.Writer) error { return nil }); err == nil {
		t.Error("WriteArtifact must surface create errors")
	}
}

// TestSweepGolden pins `isim -model SQN -sweep 2mW,4mW,8mW,strong,weak,continuous`
// to testdata/sweep_sqn.golden at one worker, and requires the same
// points at two workers (only the header's worker count differs).
func TestSweepGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sweep_sqn.golden"))
	if err != nil {
		t.Fatal(err)
	}
	net, err := iprune.BuildModel("SQN", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var b strings.Builder
		if err := runSweep(&b, net, "2mW,4mW,8mW,strong,weak,continuous", 1, workers); err != nil {
			t.Fatal(err)
		}
		got := strings.Replace(b.String(), fmt.Sprintf("%d worker(s)", workers), "1 worker(s)", 1)
		if got != string(want) {
			t.Errorf("workers=%d: sweep output\n%s\nwant\n%s", workers, got, want)
		}
	}
}
