package obs

import (
	"bytes"
	"testing"
)

// The parsers below read files a user hands to the CLIs (`isim
// -compare`). Their contract is an error for malformed input, never a
// panic. Seed inputs live in testdata/fuzz/<target>/ and include the
// inputs of past panics and blow-ups; `go test` replays them, and
// `go test -fuzz=<target>` explores from them.

func FuzzReadStatsCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Collect(syntheticRun()), []string{"conv1", "fc1"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, names, err := ReadStatsCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(names) > len(data) {
			t.Errorf("%d layer names from a %d-byte input", len(names), len(data))
		}
	})
}

func FuzzReadHistogramsCSV(f *testing.F) {
	m := NewMetrics()
	Collect(syntheticRun()).Fill(m)
	var buf bytes.Buffer
	if err := WriteHistogramsCSV(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadHistogramsCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := WriteHistogramsCSV(&bytes.Buffer{}, m); err != nil {
			t.Errorf("re-encoding a parsed registry: %v", err)
		}
	})
}
