package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// sweepInputBytes renders the sweep's generated inputs — every block
// mask and the supply list — as bytes.
func sweepInputBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	nets, sups, err := sweepInputs(seed, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, net := range nets {
		for _, p := range net.Prunables() {
			for _, keep := range p.Mask().Keep {
				if keep {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintln(&b, strings.Join(sups, ","))
	return b.Bytes()
}

func TestGeneratedInputsFollowTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) []byte{
		"fleet scenario": func(seed int64) []byte {
			js, err := scenarioJSON(seed)
			if err != nil {
				t.Fatal(err)
			}
			return js
		},
		"sweep masks and supplies": func(seed int64) []byte { return sweepInputBytes(t, seed) },
		"pipeline deployment": func(seed int64) []byte {
			everyN, order := pipelineDeployInputs(seed, 76)
			return []byte(fmt.Sprint(everyN, order))
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestGeneratedScenarioParses(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		f := &fleetLoad{seed: seed}
		if err := f.setup(newTracer(false)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the part of BENCHMARK.json the metric tables must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		var want, got []string
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		for _, l := range listed {
			got = append(got, l.Name+" "+l.Unit)
		}
		if strings.Join(want, ",") != strings.Join(got, ",") {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark reports %v", what, got, want)
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads = %v, the benchmark runs %v", names, workloadNames)
	}
}

// runLast runs the command and decodes the result on its last line.
func runLast(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v (stderr: %s)", lines[len(lines)-1], err, errb.String())
	}
	return code, res
}

func TestExitCodeFollowsChecks(t *testing.T) {
	args := []string{"--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", "0"}
	code, res := runLast(t, args...)
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("clean run: exit %d, result %+v", code, res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("clean run reported %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value in %s", d.name, v, d.unit)
		}
	}

	code, res = runLast(t, append(args, "--force-fail")...)
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Fatalf("forced failure: exit %d, result %+v; want a non-zero exit and one failed check", code, res)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "sweep", "--trace", "2"},
		{"--workload", "sweep", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
