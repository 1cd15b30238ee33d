package iprune_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iprune"
	"iprune/internal/hawaii"
	"iprune/internal/models"
	"iprune/internal/obs"
	"iprune/internal/power"
	"iprune/internal/tile"
)

// simGoldenPath pins every simulated number the cost simulator produces
// for the three paper models, dense and block-pruned, across the paper's
// operating points and a milliwatt ladder, plus two points whose buffer
// is too small to finish (one stuck op, one stuck recovery). JSON
// float64 encoding round-trips exactly, so the comparison is bit-level.
// Regenerate only when a change is meant to move simulated output:
//
//	UPDATE_SIM_GOLDEN=1 go test -run TestSimulateGolden .
const simGoldenPath = "testdata/simulate_golden.json"

// simGoldenSeed is the harvest-jitter seed of every golden point.
const simGoldenSeed = 7

var simGoldenSupplies = []string{"continuous", "strong", "weak", "2mW", "3mW", "6mW", "12mW", "24mW"}

type simGoldenPoint struct {
	Model   string
	Variant string // "dense", "pruned", or the stuck buffer's capacitance
	Supply  string
	Result  iprune.SimResult
	Err     string `json:",omitempty"`
}

// simGoldenNet builds a model with accelerator-block masks installed;
// the "pruned" variant drops a seeded half of every layer's blocks.
func simGoldenNet(t *testing.T, name, variant string) *iprune.Network {
	t.Helper()
	net, err := models.ByName(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	tile.InstallMasks(net, tile.SpecsFromNetwork(net, tile.DefaultConfig()))
	if variant == "pruned" {
		rng := rand.New(rand.NewSource(int64(len(name))))
		for _, p := range net.Prunables() {
			keep := p.Mask().Keep
			for _, b := range rng.Perm(len(keep))[:len(keep)/2] {
				keep[b] = false
			}
			p.ApplyMask()
		}
	}
	return net
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSimulateGolden checks that every PowerSweep point equals a
// standalone Simulate at its supply, that a traced run returns the
// untraced Result, and that all of them match the golden bit for bit.
func TestSimulateGolden(t *testing.T) {
	sups := make([]iprune.Supply, len(simGoldenSupplies))
	for i, n := range simGoldenSupplies {
		var err error
		if sups[i], err = iprune.ParseSupply(n); err != nil {
			t.Fatal(err)
		}
	}
	var got []simGoldenPoint
	for _, name := range models.Names() {
		for _, variant := range []string{"dense", "pruned"} {
			net := simGoldenNet(t, name, variant)
			pts := iprune.PowerSweep(net, sups, simGoldenSeed, 2)
			for i, pt := range pts {
				res, err := iprune.Simulate(net, sups[i], simGoldenSeed)
				if !reflect.DeepEqual(pt, iprune.SweepPoint{Supply: sups[i], Result: res, Err: err}) {
					t.Errorf("%s %s %s: sweep point %+v differs from Simulate %+v (err %v)", name, variant, sups[i].Name, pt, res, err)
				}
				rec := obs.NewRecorder()
				traced, terr := iprune.SimulateObserved(net, sups[i], simGoldenSeed, rec)
				if traced != res || errString(terr) != errString(err) || len(rec.Events()) == 0 {
					t.Errorf("%s %s %s: traced run %+v (err %v, %d events) differs from untraced %+v",
						name, variant, sups[i].Name, traced, terr, len(rec.Events()), res)
				}
				got = append(got, simGoldenPoint{name, variant, sups[i].Name, res, errString(err)})
			}
		}
	}
	// Buffers too small to finish: 25 µF strands op 24 of HAR after it
	// commits ops 0–23, 10 µF cannot even fit the recovery of op 0.
	net := simGoldenNet(t, "HAR", "dense")
	cfg := tile.DefaultConfig()
	ops := hawaii.ScheduleFromNetwork(net, tile.SpecsFromNetwork(net, cfg), tile.Intermittent, cfg)
	for _, c := range []struct {
		name string
		capF float64
	}{{"25uF", 25e-6}, {"10uF", 10e-6}} {
		sim := power.NewSim(power.Buffer{CapF: c.capF, VOn: 2.8, VOff: 2.4}, power.WeakPower, simGoldenSeed)
		res, err := hawaii.NewCostSim(cfg).RunWithSim(ops, tile.Intermittent, sim)
		var stuck *hawaii.ErrOpExceedsBuffer
		if !errors.As(err, &stuck) {
			t.Errorf("%s buffer: err = %v, want *ErrOpExceedsBuffer", c.name, err)
		}
		got = append(got, simGoldenPoint{"HAR", c.name, "weak", res, errString(err)})
	}
	// SONIC/TAILS task-level preservation: the task schedule of every
	// model, dense and pruned, under the weak and strong supplies.
	for _, name := range models.Names() {
		for _, variant := range []string{"dense", "pruned"} {
			net := simGoldenNet(t, name, variant)
			tasks := hawaii.TaskScheduleFromNetwork(net, tile.SpecsFromNetwork(net, cfg), cfg)
			for _, sup := range []power.Supply{power.WeakPower, power.StrongPower} {
				sim := power.NewSim(power.DefaultBuffer(), sup, simGoldenSeed)
				res, err := hawaii.NewCostSim(cfg).RunWithSim(tasks, tile.Intermittent, sim)
				got = append(got, simGoldenPoint{name, variant + "-task", sup.Name, res, errString(err)})
			}
		}
	}

	path := filepath.FromSlash(simGoldenPath)
	if os.Getenv("UPDATE_SIM_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_SIM_GOLDEN=1): %v", err)
	}
	var want []simGoldenPoint
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
