// Package power simulates the energy-harvesting supply of the paper's
// Table I: a programmable source feeding a TI BQ25504 boost converter
// that buffers energy in a 100 µF capacitor; the device is switched on
// when the capacitor reaches 2.8 V and off when it falls to 2.4 V.
//
// Under continuous power (1.65 W) the device never browns out; under
// strong (8 mW) and weak (4 mW) harvest power the buffered energy runs
// out repeatedly, producing the "repeated yet unpredictable power
// failures" the paper evaluates against. Unpredictability is modelled as
// seeded per-cycle jitter on the harvested power, so runs are reproducible
// yet failure points do not align with op boundaries.
package power

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"iprune/internal/obs"
)

// Buffer is the capacitor energy buffer behind the boost converter.
type Buffer struct {
	CapF float64 // capacitance in farads
	VOn  float64 // switch-on voltage
	VOff float64 // switch-off voltage
}

// DefaultBuffer returns the paper's 100 µF, 2.8 V / 2.4 V configuration.
func DefaultBuffer() Buffer {
	return Buffer{CapF: 100e-6, VOn: 2.8, VOff: 2.4}
}

// UsableEnergy returns the energy available per power cycle:
// ½·C·(VOn²−VOff²).
func (b Buffer) UsableEnergy() float64 {
	return 0.5 * b.CapF * (b.VOn*b.VOn - b.VOff*b.VOff)
}

// Supply describes a harvest-power operating point.
type Supply struct {
	Name       string
	Power      float64 // average harvested power, watts
	Continuous bool    // true: mains-powered, the buffer never depletes
	// Jitter is the relative per-cycle variation of harvested power
	// (0 = deterministic). The paper's ambient sources are "inherently
	// weak and unstable".
	Jitter float64
}

// The paper's three operating points.
var (
	// ContinuousPower is 1.65 W (3.3 V × 0.5 A): the device runs without
	// interruption, though HAWAII⁺ still preserves progress.
	ContinuousPower = Supply{Name: "continuous", Power: 1.65, Continuous: true}
	// StrongPower is 8 mW (1 V × 8 mA).
	StrongPower = Supply{Name: "strong", Power: 8e-3, Jitter: 0.15}
	// WeakPower is 4 mW (1 V × 4 mA).
	WeakPower = Supply{Name: "weak", Power: 4e-3, Jitter: 0.15}
)

// ParseSupply parses a supply name as the CLIs accept it: one of the
// paper's named operating points (continuous | strong | weak,
// case-insensitive) or a custom harvest power like "6mW", which gets
// the paper-default 15% per-cycle jitter.
func ParseSupply(name string) (Supply, error) {
	switch strings.ToLower(name) {
	case "continuous":
		return ContinuousPower, nil
	case "strong":
		return StrongPower, nil
	case "weak":
		return WeakPower, nil
	}
	if s, ok := strings.CutSuffix(strings.ToLower(name), "mw"); ok {
		mw, err := strconv.ParseFloat(s, 64)
		// Checked after scaling: a tiny value underflows to zero watts.
		w := mw * 1e-3
		if err != nil || w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return Supply{}, fmt.Errorf("power: bad supply %q", name)
		}
		return Supply{Name: name, Power: w, Jitter: 0.15}, nil
	}
	return Supply{}, fmt.Errorf("power: unknown supply %q (continuous|strong|weak|<N>mW)", name)
}

// Sim tracks the buffer charge across one execution. It is advanced by
// Consume calls (energy drawn over elapsed time) and reports when the
// buffer depletes.
type Sim struct {
	Buffer Buffer
	Supply Supply

	// Trace receives the power-cycle events (power-on/off, failure,
	// charge interval) timed on the simulator's own clock
	// (OnTime+OffTime). The cost simulator attaches its tracer here when
	// the field is nil; nil disables emission entirely.
	Trace obs.Tracer

	rng       *rand.Rand
	remaining float64 // energy left in this power cycle
	cyclePow  float64 // harvest power for the current cycle (jittered)
	trace     *Trace  // optional time-varying profile
	started   bool    // initial power-on event emitted

	// Stats: the energy-accounting counters behind every latency and
	// energy number the paper reports. They are NVM-disciplined — only
	// Consume and Recharge (the //iprune:nvm-api functions) may store to
	// them, so no code path can spend energy without accounting for it.

	//iprune:nvm
	Failures int
	//iprune:nvm
	OnTime float64 // seconds spent powered
	//iprune:nvm
	OffTime float64 // seconds spent recharging
	//iprune:nvm
	EnergyUsed float64 // joules drawn by the device
	// Overshoot is the cumulative energy drawn past depletion: the draw
	// that browns the device out discovers the empty buffer only at its
	// end, so its tail is spent from below VOff. Accounting it here keeps
	// Remaining clamped at zero (telemetry never sees negative buffer
	// energy) without losing the deficit from the ledger.
	//
	//iprune:nvm
	Overshoot float64
}

// NewSim constructs a simulator; seed controls the jitter sequence.
func NewSim(b Buffer, s Supply, seed int64) *Sim {
	sim := &Sim{Buffer: b, Supply: s, rng: rand.New(rand.NewSource(seed))}
	sim.remaining = b.UsableEnergy()
	sim.cyclePow = sim.drawCyclePower()
	return sim
}

func (s *Sim) drawCyclePower() float64 {
	p := s.Supply.Power
	if s.trace != nil {
		p = math.Max(s.trace.At(s.OnTime+s.OffTime), traceFloor)
	}
	if s.Supply.Jitter > 0 {
		p *= 1 + s.Supply.Jitter*(2*s.rng.Float64()-1)
	}
	return p
}

// Consume draws energy over dt seconds of device activity. It returns
// true if the buffer depleted during this draw — a power failure — in
// which case the caller must treat the activity as lost and call
// Recharge before resuming. Harvested power arriving during the activity
// offsets the draw.
//
// The energy ledger (OnTime, EnergyUsed, Failures) models NVM-resident
// counters updated atomically at each draw, so the read-modify-write
// pattern inside is the audited commit itself.
//
//iprune:nvm-api
//iprune:preserve
func (s *Sim) Consume(energy, dt float64) bool {
	if energy < 0 || dt < 0 {
		panic(fmt.Sprintf("power: negative consume (%g J, %g s)", energy, dt))
	}
	t0 := s.OnTime + s.OffTime
	if !s.started && s.Trace != nil && s.Trace.Enabled() {
		s.started = true
		s.Trace.Emit(obs.Event{Kind: obs.KindPowerOn, Time: t0, Layer: -1, Op: -1})
	}
	s.OnTime += dt
	s.EnergyUsed += energy
	if s.Supply.Continuous {
		return false
	}
	net := energy - s.cyclePow*dt
	if net < 0 {
		// Harvest exceeded draw: the converter tops the buffer back up
		// (it cannot exceed the switch-on level).
		s.remaining -= net
		if full := s.Buffer.UsableEnergy(); s.remaining > full {
			s.remaining = full
		}
		return false
	}
	s.remaining -= net
	if s.remaining <= 0 {
		s.Overshoot -= s.remaining // record the deficit, then clamp
		s.remaining = 0
		s.Failures++
		if s.Trace != nil && s.Trace.Enabled() {
			s.Trace.Emit(obs.Event{Kind: obs.KindFailure, Time: t0 + dt, Layer: -1, Op: -1, Energy: energy})
			s.Trace.Emit(obs.Event{Kind: obs.KindPowerOff, Time: t0 + dt, Layer: -1, Op: -1})
		}
		return true
	}
	return false
}

// Recharge models the off period after a failure: the device is dark
// while the harvester refills the buffer from VOff to VOn. It returns the
// off-time spent and rolls the jitter for the next cycle.
//
// Like Consume, the OffTime ledger update is the atomic commit.
//
//iprune:nvm-api
//iprune:preserve
func (s *Sim) Recharge() float64 {
	if s.Supply.Continuous {
		return 0
	}
	t0 := s.OnTime + s.OffTime
	var off float64
	if s.trace != nil {
		// Trace-driven supplies harvest at the profile's power *during*
		// the dark interval, not at the power sampled when the cycle
		// began: integrate the piecewise-linear trace forward from t0
		// until it has refilled the buffer. Dividing by the stale
		// cycle-start power instead mis-prices any recharge that spans a
		// profile edge — a trace ramping up from ~0 after a cloud would
		// charge the whole refill at the floor power and report hours of
		// dark time the profile does not contain.
		off = s.trace.rechargeTime(t0, s.Buffer.UsableEnergy())
	} else {
		off = s.Buffer.UsableEnergy() / s.cyclePow
	}
	s.OffTime += off
	s.remaining = s.Buffer.UsableEnergy()
	s.cyclePow = s.drawCyclePower()
	if s.Trace != nil && s.Trace.Enabled() {
		s.Trace.Emit(obs.Event{Kind: obs.KindCharge, Time: t0, Dur: off, Layer: -1, Op: -1})
		s.Trace.Emit(obs.Event{Kind: obs.KindPowerOn, Time: t0 + off, Layer: -1, Op: -1})
	}
	return off
}

// Remaining exposes the current buffer energy (for tests and telemetry).
// It is clamped at zero: between a failure-causing Consume and the next
// Recharge the buffer reads empty, with the deficit accounted in
// Overshoot rather than as negative energy.
func (s *Sim) Remaining() float64 { return s.remaining }

// ---------------------------------------------------------------------------
// Trace-driven supplies

// Trace is a time-varying harvest profile: piecewise-linear power samples
// over elapsed wall-clock time, emulating e.g. a solar panel through
// passing clouds. Times must be strictly increasing and start at 0.
type Trace struct {
	Times  []float64 // seconds
	Powers []float64 // watts at each time point
}

// Validate checks the trace invariants.
func (tr *Trace) Validate() error {
	if len(tr.Times) != len(tr.Powers) || len(tr.Times) < 2 {
		return fmt.Errorf("power: trace needs >= 2 aligned samples, got %d/%d", len(tr.Times), len(tr.Powers))
	}
	if tr.Times[0] != 0 {
		return fmt.Errorf("power: trace must start at t=0")
	}
	for i := 1; i < len(tr.Times); i++ {
		if tr.Times[i] <= tr.Times[i-1] {
			return fmt.Errorf("power: trace times not increasing at %d", i)
		}
	}
	for i, p := range tr.Powers {
		if p < 0 {
			return fmt.Errorf("power: negative power at sample %d", i)
		}
	}
	return nil
}

// At returns the interpolated power at time t (clamped to the ends).
func (tr *Trace) At(t float64) float64 {
	if t <= tr.Times[0] {
		return tr.Powers[0]
	}
	last := len(tr.Times) - 1
	if t >= tr.Times[last] {
		return tr.Powers[last]
	}
	// Smallest i with Times[i] >= t; the clamps above guarantee
	// 1 <= i <= last, matching the old linear scan index exactly. At is
	// called once per power cycle and per event-script tick, so a linear
	// scan turns quadratic over long scenario traces.
	i := sort.SearchFloat64s(tr.Times, t)
	t0, t1 := tr.Times[i-1], tr.Times[i]
	p0, p1 := tr.Powers[i-1], tr.Powers[i]
	return p0 + (p1-p0)*(t-t0)/(t1-t0)
}

// rechargeTime returns how long the harvester needs, starting at t0, to
// accumulate need joules from the (floor-clamped) piecewise-linear
// profile. It walks the trace segment by segment, integrating the
// trapezoid under each, and solves the final partial segment exactly.
func (tr *Trace) rechargeTime(t0, need float64) float64 {
	if need <= 0 {
		return 0
	}
	t := t0
	last := len(tr.Times) - 1
	for t < tr.Times[last] {
		pa := math.Max(tr.At(t), traceFloor)
		i := sort.SearchFloat64s(tr.Times, t)
		if tr.Times[i] == t {
			i++ // t sits exactly on a sample: integrate to the next one
		}
		pb := math.Max(tr.Powers[i], traceFloor)
		dt := tr.Times[i] - t
		if seg := 0.5 * (pa + pb) * dt; seg < need {
			need -= seg
			t = tr.Times[i]
			continue
		}
		// need is met inside [t, Times[i]): solve
		// pa·x + ½·slope·x² = need for x. The citardauq form is stable
		// for slope → 0 and the discriminant is ≥ pb² > 0 because the
		// whole segment holds at least need.
		slope := (pb - pa) / dt
		x := 2 * need / (pa + math.Sqrt(math.Max(pa*pa+2*slope*need, 0)))
		return t + x - t0
	}
	// Past the last sample the profile holds its final value (same end
	// clamp as At).
	pa := math.Max(tr.Powers[last], traceFloor)
	return t - t0 + need/pa
}

// SolarDay builds a synthetic cloudy-day trace: a sine arc from dawn to
// dusk with seeded cloud dips, peaking at peak watts over the duration.
func SolarDay(peak, duration float64, clouds int, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	const samples = 96
	tr := Trace{}
	dip := make([]float64, samples+1)
	for c := 0; c < clouds; c++ {
		center := rng.Float64() * float64(samples)
		width := 2 + rng.Float64()*6
		depth := 0.4 + rng.Float64()*0.5
		for i := 0; i <= samples; i++ {
			d := (float64(i) - center) / width
			dip[i] += depth * math.Exp(-0.5*d*d)
		}
	}
	for i := 0; i <= samples; i++ {
		frac := float64(i) / samples
		arc := math.Sin(math.Pi * frac)
		shade := 1 - math.Min(dip[i], 0.95)
		tr.Times = append(tr.Times, frac*duration)
		tr.Powers = append(tr.Powers, peak*arc*arc*shade)
	}
	return tr
}

// NewTraceSim constructs a simulator whose harvest power follows the
// trace as simulated time (on-time plus recharge time) advances.
func NewTraceSim(b Buffer, tr Trace, seed int64) (*Sim, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	s := NewSim(b, Supply{Name: "trace", Power: tr.Powers[0]}, seed)
	s.trace = &tr
	s.cyclePow = math.Max(tr.Powers[0], traceFloor)
	return s, nil
}

// traceFloor avoids division by zero when a trace hits exactly zero
// power: recharge stalls at a very long (but finite) off-time.
const traceFloor = 1e-6
