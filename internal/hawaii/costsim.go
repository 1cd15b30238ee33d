// Package hawaii implements the HAWAII⁺ intermittent inference engine of
// the paper (Section III-D): the job-counter-based progress preservation
// and recovery scheme of HAWAII [10] extended with BSR sparse weights,
// accelerated vector-matrix multiplication, tile input transformation and
// VM-filling tile sizes.
//
// The package offers two coordinated views of the engine:
//
//   - CostSim (this file): an event-driven simulator that walks the
//     accelerator-op schedule of a model and integrates latency and energy
//     against the device profile and the harvesting supply, including
//     power failures, recharge dead time and progress recovery. A model's
//     schedule is compiled once into a priced Plan that every run under
//     every supply shares. It scales to full models and generates the
//     paper's Figure 2 and Figure 5.
//
//   - Engine (engine.go): a functional simulator that really executes
//     Q15 inference job by job against simulated VM/NVM state with
//     injected power failures, demonstrating that preservation/recovery
//     produces bit-identical results to an uninterrupted run.
package hawaii

import (
	"fmt"

	"iprune/internal/device"
	"iprune/internal/energy"
	"iprune/internal/nn"
	"iprune/internal/obs"
	"iprune/internal/power"
	"iprune/internal/tile"
)

// Op is one accelerator operation in the schedule: a TM×TK weight block
// times a TK×TN input tile producing TM×TN jobs (outputs).
type Op struct {
	Layer      int // spec index
	MACs       int64
	Jobs       int64 // outputs produced
	WeightRead int64 // bytes
	// InputRead is the amortized input-tile traffic: the kk×tn tile is
	// fetched once per k-panel and charged to the panel's first op.
	InputRead int64
	OutWrite  int64 // bytes (intermittent: per op; continuous: OFM share)
	IndWrite  int64 // bytes
	// RefetchBytes is what progress recovery must re-read if power fails
	// during this op: its weight block, the full input tile, and the
	// preserved partial outputs it accumulates onto.
	RefetchBytes int64
	// SerialWrite marks ops whose output write cannot overlap compute
	// (task-level preservation flushes results only at task end).
	SerialWrite bool
}

// BuildSchedule expands a layer spec and mask into the ordered op list the
// engine executes. The loop order is input-stationary — output-column
// tiles outermost, then k-blocks, then block rows — the low-memory GEMM
// ordering of [2]: the kk×tn input tile is fetched once per surviving
// k-panel and reused across every block row, while each op streams in its
// own weight block. BSR skips pruned blocks. Aggregated over the
// schedule, the counters match tile.CountLayer exactly; tests enforce
// this so the analytic criterion and the executed schedule can never
// drift apart.
//
//iprune:hotpath
//iprune:allow-budget host-side schedule construction; it plans power-cycle regions but never executes inside one
func BuildSchedule(spec *tile.LayerSpec, mask *nn.BlockMask, mode tile.Mode, cfg tile.Config) []Op {
	if err := tile.CheckMask(spec, mask); err != nil {
		panic(err.Error())
	}
	eb := int64(cfg.ElemBytes)
	brs := (spec.M + spec.TM - 1) / spec.TM
	bcs := (spec.K + spec.TK - 1) / spec.TK
	nTiles := (spec.N + spec.TN - 1) / spec.TN
	keep := func(br, bc int) bool {
		return mask == nil || mask.Keep[br*bcs+bc]
	}
	// seen[br] counts surviving k-blocks encountered per row strip within
	// one output-column tile; lastSeen[br] is the total, used to attribute
	// the continuous-mode OFM write to the op that completes the strip.
	lastSeen := make([]int, brs)
	for br := 0; br < brs; br++ {
		for bc := 0; bc < bcs; bc++ {
			if keep(br, bc) {
				lastSeen[br]++
			}
		}
	}
	ops := make([]Op, 0, brs*bcs*nTiles)
	seen := make([]int, brs)
	for j := 0; j < nTiles; j++ {
		tn := min(spec.TN, spec.N-j*spec.TN)
		for br := range seen {
			seen[br] = 0
		}
		for bc := 0; bc < bcs; bc++ {
			kk := min(spec.TK, spec.K-bc*spec.TK)
			inputCharged := false
			for br := 0; br < brs; br++ {
				if !keep(br, bc) {
					continue
				}
				rm := min(spec.TM, spec.M-br*spec.TM)
				op := Op{
					Layer:      spec.Index,
					MACs:       int64(rm) * int64(kk) * int64(tn),
					Jobs:       int64(rm) * int64(tn),
					WeightRead: int64(rm) * int64(kk) * eb,
				}
				op.RefetchBytes = op.WeightRead + int64(kk)*int64(tn)*eb + int64(rm)*int64(tn)*eb
				if !inputCharged {
					op.InputRead = int64(kk) * int64(tn) * eb
					inputCharged = true
				}
				if mode == tile.Intermittent {
					op.OutWrite = int64(rm) * int64(tn) * eb
					op.IndWrite = int64(cfg.IndicatorBytes)
				} else if seen[br] == lastSeen[br]-1 {
					// Continuous mode: the completed OFM strip tile is
					// written back once, attributed to the op finishing it.
					op.OutWrite = int64(rm) * int64(tn) * eb
				}
				ops = append(ops, op) //iprune:allow-alloc appends into a slice preallocated to full schedule capacity
				seen[br]++
			}
		}
	}
	return ops
}

// ScheduleFromNetwork builds the whole-model op schedule from the
// network's current masks.
func ScheduleFromNetwork(net *nn.Network, specs []tile.LayerSpec, mode tile.Mode, cfg tile.Config) []Op {
	prunables := net.Prunables()
	var ops []Op
	for i := range specs {
		ops = append(ops, BuildSchedule(&specs[i], prunables[i].Mask(), mode, cfg)...)
	}
	return ops
}

// Breakdown attributes active time to activities (paper Figure 2).
type Breakdown struct {
	ReadTime float64 // NVM reads (weights, inputs, partials)
	// WriteTime and ComputeTime attribute each op's exposed pipeline
	// stage: whichever of the write stream and the accelerator dominates
	// is charged, the other is hidden under it.
	WriteTime    float64
	ComputeTime  float64
	OverheadTime float64 // op issue + DMA/SPI invocation overheads
	RecoveryTime float64 // reboot + re-fetch + re-executed work after failures
}

// Result is the outcome of one simulated end-to-end inference.
type Result struct {
	Latency    float64 // wall-clock seconds including charging dead time
	ActiveTime float64 // powered-on seconds
	OffTime    float64 // charging seconds
	Energy     float64 // joules drawn by the device
	Failures   int     // power failures experienced
	Ops        int64   // accelerator operations completed
	Jobs       int64   // accelerator outputs produced (committed once)
	Break      Breakdown
}

// CostSim compiles op schedules against a device profile and tile
// config into plans, and runs them.
type CostSim struct {
	Dev device.Profile
	Cfg tile.Config
	// Trace receives the events of every RunWithSim and RunNetwork
	// (see Plan.Run).
	Trace obs.Tracer
}

// NewCostSim constructs a simulator with the default MSP430 profile.
func NewCostSim(cfg tile.Config) *CostSim {
	return &CostSim{Dev: device.MSP430FR5994(), Cfg: cfg}
}

// opCost returns the latency, energy and breakdown attribution of one op.
// Reads happen first (DMA), then the accelerator runs while the previous
// outputs stream out — compute and preservation are pipelined (paper
// Section III-B), so the exposed time is max(compute, write). The pricing
// itself lives in energy.Model.OpCost — the one table the regionbudget
// static analyzer also reads — so the simulator and the analyzer can
// never disagree about what an op costs; only the Breakdown attribution
// (which pipeline stage the exposed time is charged to) is local.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (cs *CostSim) opCost(op *Op, mode tile.Mode) (t, e float64, b Breakdown) {
	d := &cs.Dev
	readBytes := op.WeightRead + op.InputRead
	overlapped := mode == tile.Intermittent && !op.SerialWrite
	t, e = energy.Model{Dev: cs.Dev}.OpCost(op.MACs, readBytes, op.OutWrite+op.IndWrite, overlapped)
	b = Breakdown{
		ReadTime:     d.TransferTime(readBytes, false),
		ComputeTime:  d.ComputeTime(op.MACs),
		OverheadTime: d.OpOverheadTime,
	}
	if op.OutWrite+op.IndWrite > 0 {
		b.WriteTime = d.TransferTime(op.OutWrite+op.IndWrite, true)
	}
	if overlapped {
		// The dominant stage is exposed; the other is hidden under it.
		if b.WriteTime >= b.ComputeTime {
			b.ComputeTime = 0
		} else {
			b.WriteTime = 0
		}
	}
	return t, e, b
}

// recoveryCost returns the time and energy of progress recovery after a
// failure interrupting op: reboot, progress-indicator read, the two extra
// BSR index reads to relocate the nonzero block (Section III-D), and the
// re-fetch of the interrupted op's tile data.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (cs *CostSim) recoveryCost(op *Op) (t, e float64) {
	idxBytes := int64(cs.Cfg.IndicatorBytes) + 2*2
	return energy.Model{Dev: cs.Dev}.RecoveryCost(idxBytes, op.RefetchBytes)
}

// ErrOpExceedsBuffer reports that a single op (or its recovery path)
// draws more energy than one full buffer charge supplies, so the
// schedule can never make progress under the given supply: the device
// would brown out at the same point on every retry. The regionbudget
// static analyzer exists to catch the source-level analogue of this
// condition before a deployment ever hits it at runtime.
type ErrOpExceedsBuffer struct {
	Op       int     // schedule index of the stuck op
	Supply   string  // supply name
	Recovery bool    // true if the recovery path, not the op itself, is stuck
	Energy   float64 // joules the stuck step needs in one charge
	Buffer   float64 // usable joules per charge
}

func (e *ErrOpExceedsBuffer) Error() string {
	what := "op"
	if e.Recovery {
		what = "recovery for op"
	}
	return fmt.Sprintf("hawaii: %s %d cannot complete under %s supply: needs %s in one power cycle but the buffer supplies %s",
		what, e.Op, e.Supply, energy.FormatJ(e.Energy), energy.FormatJ(e.Buffer))
}

// Plan is one deployed model compiled for the cost simulator: its op
// schedule under one execution mode, with every distinct op priced once
// against the device profile and tile config of the CostSim that
// compiled it. A plan is immutable, so one plan serves any number of
// runs, concurrent ones included, under any supply.
type Plan struct {
	mode tile.Mode
	// seq is the schedule: seq[i] indexes the class of op i. The three
	// paper models schedule 240–3816 ops but only 8–23 distinct ones.
	seq     []int32
	classes []opClass
}

// opClass is one distinct op of a plan with its prices.
type opClass struct {
	op     Op
	t, e   float64   // op latency and energy
	b      Breakdown // attribution of t (RecoveryTime unused)
	rt, re float64   // recovery latency and energy after a failure in op
}

// Len returns the number of ops in the plan's schedule.
func (p *Plan) Len() int { return len(p.seq) }

// compile prices the schedule ops under mode into a plan. The plan
// copies what it needs, so ops may be reused afterwards.
func (cs *CostSim) compile(ops []Op, mode tile.Mode) *Plan {
	p := &Plan{mode: mode, seq: make([]int32, len(ops))}
	ids := make(map[Op]int32)
	for i := range ops {
		op := &ops[i]
		id, ok := ids[*op]
		if !ok {
			id = int32(len(p.classes))
			ids[*op] = id
			c := opClass{op: *op}
			c.t, c.e, c.b = cs.opCost(op, mode)
			c.rt, c.re = cs.recoveryCost(op)
			p.classes = append(p.classes, c)
		}
		p.seq[i] = id
	}
	return p
}

// CompileNetwork compiles the whole-model schedule of the network's
// current masks. A mask the schedule cannot follow returns
// *tile.ErrMaskGeometry.
func (cs *CostSim) CompileNetwork(net *nn.Network, specs []tile.LayerSpec, mode tile.Mode) (*Plan, error) {
	for i, p := range net.Prunables() {
		if err := tile.CheckMask(&specs[i], p.Mask()); err != nil {
			return nil, err
		}
	}
	return cs.compile(ScheduleFromNetwork(net, specs, mode, cs.Cfg), mode), nil
}

// RunWithSim compiles the schedule and runs it once against a
// caller-provided power simulator — the hook for trace-driven supplies
// (power.NewTraceSim) and custom buffers. Callers that run one network
// many times should CompileNetwork once and Run the plan.
func (cs *CostSim) RunWithSim(ops []Op, mode tile.Mode, sim *power.Sim) (Result, error) {
	return cs.compile(ops, mode).Run(sim, cs.Trace)
}

// RunNetwork compiles the network's current masks and runs the plan
// once; a mask the schedule cannot follow returns *tile.ErrMaskGeometry.
func (cs *CostSim) RunNetwork(net *nn.Network, specs []tile.LayerSpec, mode tile.Mode, sup power.Supply, seed int64) (Result, error) {
	p, err := cs.CompileNetwork(net, specs, mode)
	if err != nil {
		return Result{}, err
	}
	return p.Run(power.NewSim(power.DefaultBuffer(), sup, seed), cs.Trace)
}

// Run simulates one end-to-end inference of the plan against sim; it
// is the one simulation loop of the cost simulator. tr receives op,
// layer and recovery events, and also the power simulator's own events
// (power-on/off, failure, charge) unless sim already has a tracer; nil
// disables tracing at the cost of one branch per op. A non-nil error is
// *ErrOpExceedsBuffer: the schedule contains an op that can never fit
// one buffer charge, and the partial Result covers the work committed
// before the stuck op.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (p *Plan) Run(sim *power.Sim, tr obs.Tracer) (Result, error) {
	sup := sim.Supply
	if p.mode == tile.Continuous && !sup.Continuous {
		panic("hawaii: the conventional data-reuse flow cannot survive power failures (Section II-B); use Intermittent mode with a harvested supply")
	}
	if tr == nil {
		tr = obs.Nop{}
	}
	if sim.Trace == nil {
		sim.Trace = tr
	}
	traced := tr.Enabled()
	var res Result
	// The trace clock is res.Latency itself: every event is stamped with
	// the simulated wall-clock at which it begins, and layer-end events
	// carry the layer's inclusive span and energy delta so per-layer
	// sums reproduce the aggregate totals exactly.
	curLayer := -1
	var layerT0, layerE0 float64
	endLayer := func() {
		if traced && curLayer >= 0 {
			tr.Emit(obs.Event{
				Kind: obs.KindLayerEnd, Time: res.Latency,
				Dur: res.Latency - layerT0, Layer: curLayer, Op: -1,
				Energy: sim.EnergyUsed - layerE0,
			})
		}
	}
	for i, id := range p.seq {
		c := &p.classes[id]
		op := &c.op
		if op.Layer != curLayer {
			endLayer()
			curLayer = op.Layer
			layerT0, layerE0 = res.Latency, sim.EnergyUsed
			if traced {
				tr.Emit(obs.Event{Kind: obs.KindLayerStart, Time: res.Latency, Layer: curLayer, Op: -1})
			}
		}
		t, e := c.t, c.e
		const maxRetries = 1000
		retries := 0
		for {
			if traced {
				tr.Emit(obs.Event{Kind: obs.KindOpStart, Time: res.Latency, Layer: curLayer, Op: int64(i)})
			}
			if !sim.Consume(e, t) {
				break // op committed
			}
			// Power failed during the op: its time is spent but the work
			// is lost; charge the dark period, then the recovery path.
			res.ActiveTime += t
			res.Latency += t
			off := sim.Recharge()
			res.OffTime += off
			res.Latency += off
			rt, re := c.rt, c.re
			for sim.Consume(re, rt) {
				// Failing during recovery itself: recharge and retry the
				// recovery (possible only under extreme profiles).
				off = sim.Recharge()
				res.OffTime += off
				res.Latency += off
				retries++
				if retries > maxRetries {
					res.Energy = sim.EnergyUsed
					res.Failures = sim.Failures
					return res, &ErrOpExceedsBuffer{
						Op: i, Supply: sup.Name, Recovery: true,
						Energy: re, Buffer: sim.Buffer.UsableEnergy(),
					}
				}
			}
			if traced {
				tr.Emit(obs.Event{
					Kind: obs.KindRecovery, Time: res.Latency, Dur: rt,
					Layer: curLayer, Op: int64(i), Energy: re,
					Read: op.RefetchBytes,
				})
			}
			res.ActiveTime += rt
			res.Latency += rt
			res.Break.RecoveryTime += rt
			retries++
			if retries > maxRetries {
				res.Energy = sim.EnergyUsed
				res.Failures = sim.Failures
				return res, &ErrOpExceedsBuffer{
					Op: i, Supply: sup.Name,
					Energy: e, Buffer: sim.Buffer.UsableEnergy(),
				}
			}
		}
		if traced {
			tr.Emit(obs.Event{
				Kind: obs.KindOpCommit, Time: res.Latency, Dur: t,
				Layer: curLayer, Op: int64(i), Energy: e,
				Read: op.WeightRead + op.InputRead,
			})
			if wb := op.OutWrite + op.IndWrite; wb > 0 {
				tr.Emit(obs.Event{
					Kind: obs.KindPreserve, Time: res.Latency + t,
					Layer: curLayer, Op: int64(i), Write: wb,
				})
			}
		}
		res.ActiveTime += t
		res.Latency += t
		res.Ops++
		res.Jobs += op.Jobs
		res.Break.ReadTime += c.b.ReadTime
		res.Break.WriteTime += c.b.WriteTime
		res.Break.ComputeTime += c.b.ComputeTime
		res.Break.OverheadTime += c.b.OverheadTime
	}
	endLayer()
	if traced && len(p.seq) > 0 {
		tr.Emit(obs.Event{Kind: obs.KindPowerOff, Time: res.Latency, Layer: -1, Op: -1})
	}
	res.Energy = sim.EnergyUsed
	res.Failures = sim.Failures
	return res, nil
}
