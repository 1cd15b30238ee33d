package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"iprune"
	"iprune/internal/hawaii"
	"iprune/internal/models"
	"iprune/internal/nn"
	"iprune/internal/power"
	"iprune/internal/tile"
)

// sweepSparsities are the block sparsities each model is swept at:
// pruned schedules skip blocks, so the grid covers dense and pruned
// shapes of every model.
var sweepSparsities = []float64{0, 0.5, 0.8}

// sweepLadder is the number of seeded harvest powers swept besides the
// paper's three supplies. It sizes a round at about half a second.
const sweepLadder = 600

// sweep is iprune.PowerSweep at one worker, the isim -sweep default,
// over every model at every sparsity and every supply. It trains
// nothing and traces nothing: its time is schedule construction,
// power.Sim construction, cost simulation and garbage collection.
type sweep struct {
	seed int64
	nets []*nn.Network
	sups []power.Supply

	last [][]iprune.SweepPoint // the latest traced round, per net
}

// sweepInputs generates the sweep's inputs from the seed: every model's
// weights with seeded block masks at each sparsity, and the supply list
// (the paper's three operating points, then a ladder of random harvest
// powers between 2 and 40 mW).
func sweepInputs(seed int64, tr *tracer) ([]*nn.Network, []string, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := tile.DefaultConfig()
	var nets []*nn.Network
	for _, name := range models.Names() {
		for _, sparsity := range sweepSparsities {
			sp := tr.begin("models.ByName")
			net, err := models.ByName(name, seed)
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			sp = tr.begin("tile.InstallMasks")
			tile.InstallMasks(net, tile.SpecsFromNetwork(net, cfg))
			tr.end(sp)
			sp = tr.begin("nn.ApplyMask")
			for _, p := range net.Prunables() {
				keep := p.Mask().Keep
				drop := min(int(sparsity*float64(len(keep))), len(keep)-1)
				for _, b := range rng.Perm(len(keep))[:drop] {
					keep[b] = false
				}
				p.ApplyMask()
			}
			tr.end(sp)
			nets = append(nets, net)
		}
	}
	sups := []string{"continuous", "strong", "weak"}
	for i := 0; i < sweepLadder; i++ {
		sups = append(sups, fmt.Sprintf("%.3fmW", 2+38*rng.Float64()))
	}
	return nets, sups, nil
}

func (s *sweep) setup(tr *tracer) error {
	nets, names, err := sweepInputs(s.seed, tr)
	if err != nil {
		return err
	}
	s.nets, s.sups = nets, make([]power.Supply, len(names))
	sp := tr.begin("power.ParseSupply")
	defer tr.end(sp)
	for i, n := range names {
		if s.sups[i], err = power.ParseSupply(n); err != nil {
			return err
		}
	}
	return nil
}

// roundSeed gives every round of every run its own jitter seed.
func (s *sweep) roundSeed(r int) int64 { return s.seed<<20 + int64(r) }

func (s *sweep) sweepAll(r, workers int, tr *tracer) [][]iprune.SweepPoint {
	out := make([][]iprune.SweepPoint, len(s.nets))
	for i, net := range s.nets {
		sp := tr.begin("iprune.PowerSweep")
		out[i] = iprune.PowerSweep(net, s.sups, s.roundSeed(r), workers)
		tr.end(sp)
	}
	return out
}

func (s *sweep) round(r int, tr *tracer, chk *checks) (int64, error) {
	pts := s.sweepAll(r, 1, tr)
	if tr.on {
		s.last = pts
	}
	var ops int64
	for i, row := range pts {
		for _, pt := range row {
			chk.expect(pt.Err == nil, "sweep net %d at %s: %v", i, pt.Supply.Name, pt.Err)
			ops += pt.Result.Ops
		}
	}
	return ops, nil
}

// Probe repetitions: enough calls that each probe runs for tens of
// milliseconds.
const (
	scheduleReps = 20
	newSimReps   = 2000
	costSimReps  = 20
)

// widths repeats the traced round at one worker per CPU and again at
// one worker, both with one P per CPU, checks that all three rounds
// agree, and returns the pool's speed-up.
func (s *sweep) widths(tr *tracer, chk *checks) float64 {
	n := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	runtime.GC()
	t0 := time.Now()
	wide := s.sweepAll(0, n, tr)
	tn := time.Since(t0).Seconds()
	narrow := s.last
	runtime.GC()
	t0 = time.Now()
	s.last = s.sweepAll(0, 1, tr)
	t1 := time.Since(t0).Seconds()
	chk.expect(reflect.DeepEqual(wide, narrow) && reflect.DeepEqual(wide, s.last),
		"sweep round at %d workers differs from the round at 1 worker", n)
	return t1 / tn
}

func (s *sweep) layers(m metrics, tr *tracer, _ int, chk *checks) error {
	m["pool.speedup"] = s.widths(tr, chk)

	cfg := tile.DefaultConfig()
	var calls int
	var schedTime time.Duration
	g0 := readGoRuntime()
	var ops [][]hawaii.Op
	for _, net := range s.nets {
		specs := tile.SpecsFromNetwork(net, cfg)
		sp := tr.begin("hawaii.ScheduleFromNetwork")
		t0 := time.Now()
		var sched []hawaii.Op
		for r := 0; r < scheduleReps; r++ {
			sched = hawaii.ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
		}
		schedTime += time.Since(t0)
		tr.end(sp)
		calls += scheduleReps
		ops = append(ops, sched)
	}
	g1 := readGoRuntime()
	m["hawaii.schedule_us"] = schedTime.Seconds() / float64(calls) * 1e6
	m["hawaii.schedule_alloc_kb"] = (g1.allocBytes - g0.allocBytes) / float64(calls) / 1e3

	sp := tr.begin("power.NewSim")
	t0 := time.Now()
	for i := 0; i < newSimReps; i++ {
		power.NewSim(power.DefaultBuffer(), power.WeakPower, int64(i))
	}
	m["power.newsim_us"] = time.Since(t0).Seconds() / newSimReps * 1e6
	tr.end(sp)

	// The cost simulator alone: prebuilt schedules, tracing off.
	var simOps int64
	var simTime time.Duration
	sp = tr.begin("hawaii.CostSim.RunWithSim")
	defer tr.end(sp)
	for i, sched := range ops {
		for r := 0; r < costSimReps; r++ {
			sim := power.NewSim(power.DefaultBuffer(), power.WeakPower, s.seed+int64(r))
			t0 := time.Now()
			res, err := hawaii.NewCostSim(cfg).RunWithSim(sched, tile.Intermittent, sim)
			simTime += time.Since(t0)
			if err != nil {
				return fmt.Errorf("cost sim of sweep net %d: %w", i, err)
			}
			simOps += res.Ops
		}
	}
	m["hawaii.costsim_ns_per_op"] = float64(simTime.Nanoseconds()) / float64(simOps)
	return nil
}
