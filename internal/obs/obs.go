// Package obs is the observability layer of the intermittent inference
// stack: typed trace events emitted by the cost simulator, the power
// simulator and the functional HAWAII⁺ engine, a registry of counters
// and fixed-bucket histograms derived from them, and sinks that render a
// recorded run as Chrome trace-event JSON (loadable in Perfetto), CSV,
// or a terminal summary table.
//
// The design goal is zero cost when disabled: hot paths hold a Tracer
// interface and guard every emission with Enabled(), so with the Nop
// tracer (or a nil tracer behind an EnergyClock) no event is constructed
// and no allocation happens — events are plain value structs passed by
// value, never boxed. The package deliberately depends on nothing but
// the standard library and on no other package of this module, so every
// layer of the stack can import it.
package obs

// Kind enumerates the typed trace events of the intermittent inference
// stack.
type Kind uint8

// The event types. Power events mirror the capacitor-buffered supply of
// the paper's Table I; op events mirror the HAWAII⁺ accelerator-op
// schedule and its job-counter progress preservation.
const (
	// KindPowerOn marks the device switching on: run start or the end of
	// a recharge period (instant).
	KindPowerOn Kind = iota
	// KindPowerOff marks the device switching off: buffer depleted or
	// run end (instant).
	KindPowerOff
	// KindCharge is the charging dead-time span between a power-off and
	// the next power-on; Dur is the off-time.
	KindCharge
	// KindOpStart marks one accelerator-op attempt being issued
	// (instant). An attempt that is not followed by a matching
	// KindOpCommit was lost to a power failure.
	KindOpStart
	// KindOpCommit is the span of a successfully committed accelerator
	// op: Dur covers its reads, compute and overlapped preservation
	// write; Energy is the op's draw; Read its NVM read bytes.
	KindOpCommit
	// KindPreserve is a progress-preservation NVM write (op outputs plus
	// the job-counter progress indicator); Write carries the bytes.
	KindPreserve
	// KindFailure marks a power failure, simulated or injected
	// (instant).
	KindFailure
	// KindRecovery is the progress-recovery span after a failure:
	// reboot, progress-indicator read and tile re-fetch. Read carries
	// the re-fetched bytes.
	KindRecovery
	// KindReExec marks re-execution of the single op interrupted by a
	// failure (instant).
	KindReExec
	// KindLayerStart marks entry into a layer (instant).
	KindLayerStart
	// KindLayerEnd marks a layer completing. Dur and Energy carry the
	// layer's inclusive wall-clock span and energy draw, including any
	// charging dead-time and recovery spent inside the layer, so that
	// per-layer sums reproduce the aggregate totals exactly.
	KindLayerEnd
)

var kindNames = [...]string{
	"power-on", "power-off", "charge", "op-start", "op-commit",
	"preserve", "failure", "recovery", "re-exec", "layer-start",
	"layer-end",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace event. Time is simulated, not wall-clock: the cost
// simulator stamps seconds, the functional engine stamps preservation
// steps or priced seconds (see EnergyClock). Layer and Op are -1 when the event is not
// scoped to a layer or op.
type Event struct {
	Kind   Kind
	Time   float64 // simulated time at which the event begins
	Dur    float64 // span duration; 0 for instants
	Layer  int     // layer index; -1 when not layer-scoped
	Op     int64   // op ordinal within the run; -1 when not op-scoped
	Energy float64 // joules attributed to the event
	Read   int64   // NVM bytes read
	Write  int64   // NVM bytes written
}

// Tracer receives events from the instrumented simulators. Hot paths
// must guard emission with Enabled so a disabled tracer costs one
// predictable branch and constructs nothing; Emit takes the event by
// value, so emitting never heap-allocates on the caller's side.
type Tracer interface {
	// Enabled reports whether emitted events are recorded.
	Enabled() bool
	// Emit records one event.
	Emit(Event)
}

// Nop is the disabled tracer: Enabled is false and Emit discards. It is
// the default everywhere a tracer is optional.
type Nop struct{}

// Enabled implements Tracer.
//
//iprune:hotpath
func (Nop) Enabled() bool { return false }

// Emit implements Tracer.
//
//iprune:hotpath
func (Nop) Emit(Event) {}

// Recorder is the in-memory tracer: it appends every event to a slice
// for later collection and export.
type Recorder struct {
	events []Event
}

// NewRecorder returns a Recorder with room for a typical run.
func NewRecorder() *Recorder {
	return &Recorder{events: make([]Event, 0, 1024)}
}

// Enabled implements Tracer.
//
//iprune:hotpath
func (r *Recorder) Enabled() bool { return true }

// Emit implements Tracer. The append amortizes over the preallocated
// buffer; recording is not a hot-path-neutral operation and is only
// reached when tracing was explicitly requested.
//
//iprune:hotpath
func (r *Recorder) Emit(ev Event) {
	r.events = append(r.events, ev) //iprune:allow-alloc amortized growth of the opt-in recording buffer
}

// Events returns the recorded events in emission order. The slice
// aliases the recorder's buffer and stays valid after a Reset: Reset
// abandons the backing array instead of truncating it, so events
// emitted afterwards can never clobber a previously returned snapshot.
func (r *Recorder) Events() []Event { return r.events }

// Reset discards the recorded events. It allocates a fresh buffer of
// the same capacity rather than truncating in place — truncation would
// make subsequent Emits overwrite the backing array of slices handed
// out by Events before the Reset.
func (r *Recorder) Reset() { r.events = make([]Event, 0, cap(r.events)) }

// Pricer converts one functional-execution event into simulated seconds
// and joules. The obs package deliberately imports nothing, so the
// implementation lives with the cost model's importers (see
// hawaii.NewTracePricer, which prices against energy.Model — the same
// table the cost simulator and the regionbudget analyzer read); obs only
// defines the contract.
type Pricer interface {
	// Price returns the simulated duration (seconds) and energy (joules)
	// of one event of the given kind: macs is the op's multiply-
	// accumulate count, read/write its NVM traffic in bytes. Kinds a
	// pricer does not model must return (0, 0).
	Price(kind Kind, macs, read, write int64) (dt, energy float64)
}

// EnergyClock drives a Tracer from functional execution. With a nil
// Pricer simulated time is the count of preservation steps: every
// emission advances the clock by one step, so timestamps are strictly
// monotonic and carry no energy. With a Pricer the clock is calibrated
// against a cost model instead: every emission advances simulated
// seconds and accumulates joules, so functional-engine traces land on
// the same microsecond/joule axis as cost-simulator traces of the same
// schedule and overlay in one Chrome trace. The zero EnergyClock (nil
// tracer) is disabled and emits nothing.
//
// The clock mirrors the cost simulator's emission conventions so
// Collect and the sinks treat both backends identically: an op-commit
// is a span whose duration covers reads, compute and the overlapped
// preservation write, followed by a synthesized preserve instant
// carrying the write bytes; layer-end events carry the layer's
// inclusive time span and energy delta; charge events are spans of
// recharge dead-time. All float arithmetic of the calibration is
// confined here and in the Pricer, keeping the Q15 engine float-free.
type EnergyClock struct {
	T Tracer
	P Pricer // nil: step semantics (1 step per event, no energy)

	now, joules      float64
	layerT0, layerE0 float64
}

// Enabled reports whether emissions reach a recording tracer.
//
//iprune:hotpath
func (c *EnergyClock) Enabled() bool { return c.T != nil && c.T.Enabled() }

// Now returns the current simulated time: seconds with a Pricer,
// preservation steps without.
func (c *EnergyClock) Now() float64 { return c.now }

// EnergyJ returns the joules accumulated so far (0 without a Pricer).
func (c *EnergyClock) EnergyJ() float64 { return c.joules }

// Emit records one event at the current time and advances the clock by
// the event's priced duration (one step without a Pricer). Span kinds
// (op-commit, charge, recovery) carry the priced duration; an op-commit
// whose write is nonzero is followed by a synthesized preserve instant
// at the op's end, mirroring the cost simulator's emission order, with
// the write's cost already folded into the op span (the accelerator
// overlaps preservation with compute).
//
//iprune:hotpath
//iprune:allow-float timeline calibration integrates seconds and joules; confined here by design (see type doc)
//iprune:allow-budget host-side trace bookkeeping, not device execution; the Pricer call prices regions, it does not run inside one
func (c *EnergyClock) Emit(kind Kind, layer int, op int64, macs, read, write int64) {
	if !c.Enabled() {
		return
	}
	step := c.P == nil
	var dt, e float64
	if step {
		dt = 1
	} else {
		dt, e = c.P.Price(kind, macs, read, write)
	}
	ev := Event{Kind: kind, Time: c.now, Layer: layer, Op: op, Energy: e, Read: read, Write: write}
	switch kind {
	case KindLayerStart:
		c.layerT0, c.layerE0 = c.now, c.joules
	case KindLayerEnd:
		// Layer-end rollup: inclusive span and energy delta since the
		// matching layer-start, so per-layer sums reproduce run totals.
		ev.Dur = c.now - c.layerT0
		ev.Energy = c.joules - c.layerE0
	case KindOpCommit, KindCharge, KindRecovery:
		if !step {
			ev.Dur = dt
		}
	}
	if kind == KindOpCommit {
		// The preservation write is priced into the op span but rendered
		// as its own instant below, like the cost simulator does.
		ev.Write = 0
	}
	c.T.Emit(ev)
	c.now += dt
	c.joules += e
	if kind == KindOpCommit && write > 0 {
		c.T.Emit(Event{Kind: KindPreserve, Time: c.now, Layer: layer, Op: op, Write: write})
		if step {
			c.now++
		}
	}
}
