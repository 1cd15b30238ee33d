// Package tile models how HAWAII⁺ lowers each DNN layer onto the LEA-class
// accelerator: the GEMM loop tiling and ordering (following the
// high-performance low-memory lowering of Anderson et al., [2] in the
// paper), the decomposition into accelerator operations and jobs, and the
// resulting counts of MACs, accelerator outputs, and NVM traffic.
//
// These counts are the substance of the paper:
//
//   - the number of accelerator outputs is iPrune's pruning criterion
//     (Section III-B);
//   - the pruning granularity is the weight block computed by one
//     accelerator operation (Section III-C, guideline 3);
//   - NVM write traffic derived from the op schedule is what makes
//     intermittent inference latency behave differently from continuous
//     inference (Section II-B, Figure 2).
//
// Model. A layer is lowered to C[M×N] = W[M×K]·X[K×N] (for convolutions,
// M=OutC, K=InC·KH·KW, N=OutH·OutW; for FC, N=1). One accelerator
// operation multiplies a TM×TK weight block by a TK×TN input tile and
// produces TM×TN partially-accumulated outputs; each produced output is a
// job in HAWAII's sense, and in intermittent mode every job's output is
// written straight back to NVM together with a progress indicator. The
// reduction tile TK is short — for convolutions it is one spatial kernel
// window (KH·KW), for FC layers the accelerator's vector-MAC length —
// which is exactly why intermittent inference is write-dominated: every
// few MACs one fresh partial output leaves the accelerator.
package tile

import (
	"fmt"
	"math"

	"iprune/internal/nn"
	"iprune/internal/obs"
)

// Config describes the inference-engine configuration that determines the
// op decomposition (the paper: "the tile size and dataflow").
type Config struct {
	// VMBytes is the SRAM available to tiles (both operands and results).
	VMBytes int
	// VMUtil is the fraction of VMBytes usable for tile data after the
	// engine's own state (the rest holds stacks, DMA descriptors, and the
	// double-buffer margin).
	VMUtil float64
	// ElemBytes is the byte width of one value (2 for Q15).
	ElemBytes int
	// IndicatorBytes is the size of the progress indicator written with
	// each accelerator operation's outputs (HAWAII's job counter).
	IndicatorBytes int
	// MaxTM caps how many output rows one accelerator op produces
	// (HAWAII⁺'s accelerated vector-matrix multiply width).
	MaxTM int
	// MaxTN caps the output-column tile width.
	MaxTN int
	// FCVecLen is the accelerator's maximum vector-MAC length, the TK used
	// by fully connected layers.
	FCVecLen int
}

// DefaultConfig mirrors the paper's platform: 8 KB SRAM, Q15 values,
// a job-counter indicator, and LEA-like op shapes.
func DefaultConfig() Config {
	return Config{
		VMBytes:        8 * 1024,
		VMUtil:         0.75,
		ElemBytes:      2,
		IndicatorBytes: 8,
		MaxTM:          8,
		MaxTN:          32,
		FCVecLen:       32,
	}
}

// LayerSpec is the lowered description of one prunable layer.
type LayerSpec struct {
	Index int     // position among the network's prunable layers
	Name  string  // layer name
	Kind  nn.Kind // KindConv or KindFC
	M     int     // GEMM rows (output channels / FC outputs)
	K     int     // GEMM reduction (InC·KH·KW / FC inputs)
	N     int     // GEMM columns (OutH·OutW / 1)
	KHKW  int     // conv spatial window size (KH·KW); 0 for FC

	TM, TK, TN int // selected tile shape
}

// Blocks returns the number of weight blocks in the layer.
func (s *LayerSpec) Blocks() int {
	return ceilDiv(s.M, s.TM) * ceilDiv(s.K, s.TK)
}

// Weights returns the number of weight elements in the layer.
func (s *LayerSpec) Weights() int { return s.M * s.K }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// SelectTiles chooses the tile shape for a layer under the VM constraint,
// implementing HAWAII⁺'s "tile size selection to fully utilize the VM and
// maximize data reuse": TK is fixed by the op type (kernel window for
// conv, vector-MAC length for FC), then TN is maximized (reusing the
// loaded weight block across output columns), then TM.
func SelectTiles(kind nn.Kind, m, k, n, khkw int, cfg Config) (tm, tk, tn int) {
	budget := int(float64(cfg.VMBytes) * cfg.VMUtil / float64(cfg.ElemBytes)) //iprune:allow-float config-time VM budget, not on the inference path
	if budget < 16 {
		budget = 16
	}
	switch kind {
	case nn.KindConv:
		tk = khkw
	case nn.KindFC:
		tk = cfg.FCVecLen
	default:
		panic(fmt.Sprintf("tile: layer kind %v is not prunable", kind))
	}
	tk = min(tk, k)
	if tk < 1 {
		tk = 1
	}
	tn = min(cfg.MaxTN, n)
	// Balance TM across row strips so edge blocks carry minimal padding
	// in the BSR store (M=9 with MaxTM=8 becomes two 5/4 strips, not 8/1).
	tm = min(cfg.MaxTM, m)
	tm = ceilDiv(m, ceilDiv(m, tm))
	// Shrink until everything fits the VM budget: the weight block and
	// input tile are double-buffered so DMA can overlap compute, and the
	// partial panel (one output column tile across all M rows) stays
	// VM-resident so outputs accumulate without NVM re-reads.
	fits := func() bool {
		return 2*(tm*tk+tk*tn)+m*tn <= budget
	}
	for !fits() && tn > 1 {
		tn--
	}
	for !fits() && tm > 1 {
		tm--
	}
	for !fits() && tk > 1 {
		tk--
	}
	return tm, tk, tn
}

// SpecsFromNetwork lowers every prunable layer of the network and returns
// the specs in network order. It does not touch the network's masks; use
// InstallMasks for that.
func SpecsFromNetwork(net *nn.Network, cfg Config) []LayerSpec {
	var specs []LayerSpec
	idx := 0
	nn.Walk(net.Layers, func(l nn.Layer) {
		p, ok := l.(nn.Prunable)
		if !ok {
			return
		}
		var s LayerSpec
		s.Index = idx
		s.Name = l.Name()
		s.Kind = l.Kind()
		switch v := l.(type) {
		case *nn.Conv2D:
			s.M = v.Geom.OutC
			s.K = v.Geom.K()
			s.N = v.Geom.N()
			s.KHKW = v.Geom.KH * v.Geom.KW
		case *nn.FC:
			s.M = v.Out
			s.K = v.In
			s.N = 1
		default:
			_, rows, cols := p.WeightMatrix()
			s.M, s.K, s.N = rows, cols, 1
		}
		s.TM, s.TK, s.TN = SelectTiles(s.Kind, s.M, s.K, s.N, s.KHKW, cfg)
		specs = append(specs, s)
		idx++
	})
	return specs
}

// InstallMasks initializes each prunable layer's block mask to match its
// accelerator-op weight-block geometry. Existing masks are replaced.
func InstallMasks(net *nn.Network, specs []LayerSpec) {
	prunables := net.Prunables()
	if len(prunables) != len(specs) {
		panic(fmt.Sprintf("tile: %d specs for %d prunable layers", len(specs), len(prunables)))
	}
	for i, p := range prunables {
		p.InitBlocks(specs[i].TM, specs[i].TK)
	}
}

// EnsureMasks installs an accelerator-block mask on every prunable layer
// that has none (one that has not been through the pruner) and keeps the
// existing ones. An existing mask that does not block its layer as the
// spec does returns *ErrMaskGeometry.
func EnsureMasks(net *nn.Network, specs []LayerSpec) error {
	for i, p := range net.Prunables() {
		if p.Mask() == nil {
			p.InitBlocks(specs[i].TM, specs[i].TK)
		} else if err := CheckMask(&specs[i], p.Mask()); err != nil {
			return err
		}
	}
	return nil
}

// ErrMaskGeometry reports a prunable layer whose block mask does not
// tile the layer the way the engine's ops do, so no schedule or count
// exists for it: the mask's shape or block size differs from the layer
// spec's.
type ErrMaskGeometry struct {
	Layer        string
	Rows, Cols   int // mask shape
	BM, BK       int // mask block size
	M, K, TM, TK int // spec shape and op tile
}

func (e *ErrMaskGeometry) Error() string {
	return fmt.Sprintf("tile: mask geometry %dx%d/%dx%d does not match spec %dx%d/%dx%d for %s",
		e.Rows, e.Cols, e.BM, e.BK, e.M, e.K, e.TM, e.TK, e.Layer)
}

// CheckMask returns *ErrMaskGeometry unless mask is nil (dense) or
// blocks spec exactly as its accelerator ops do.
func CheckMask(spec *LayerSpec, mask *nn.BlockMask) error {
	if mask == nil || mask.Rows == spec.M && mask.Cols == spec.K && mask.BM == spec.TM && mask.BK == spec.TK {
		return nil
	}
	return &ErrMaskGeometry{
		Layer: spec.Name, Rows: mask.Rows, Cols: mask.Cols, BM: mask.BM, BK: mask.BK,
		M: spec.M, K: spec.K, TM: spec.TM, TK: spec.TK,
	}
}

// Counts aggregates the execution-cost counters of a layer (or network).
type Counts struct {
	Ops        int64 // accelerator operations issued
	Jobs       int64 // accelerator outputs produced (= the iPrune criterion)
	MACs       int64 // multiply-accumulates performed
	WeightRead int64 // bytes of weights fetched from NVM
	InputRead  int64 // bytes of input-tile data fetched from NVM
	// PartialRead is bytes of preserved partial sums re-fetched from NVM.
	// In steady state partials accumulate in the VM-resident panel and
	// are only written (preservation is write-only), so this is zero in
	// analytic schedules; progress recovery after a power failure charges
	// it separately.
	PartialRead int64
	// OutputWrite is bytes of accelerator outputs written back
	// (per job in intermittent mode; once per OFM in continuous mode).
	OutputWrite int64
	// IndicatorWrite is bytes of progress indicators written
	// (intermittent mode only).
	IndicatorWrite int64
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Ops += other.Ops
	c.Jobs += other.Jobs
	c.MACs += other.MACs
	c.WeightRead += other.WeightRead
	c.InputRead += other.InputRead
	c.PartialRead += other.PartialRead
	c.OutputWrite += other.OutputWrite
	c.IndicatorWrite += other.IndicatorWrite
}

// TotalNVMRead returns all NVM read bytes.
func (c *Counts) TotalNVMRead() int64 { return c.WeightRead + c.InputRead + c.PartialRead }

// TotalNVMWrite returns all NVM write bytes.
func (c *Counts) TotalNVMWrite() int64 { return c.OutputWrite + c.IndicatorWrite }

// Mode selects between the two execution disciplines of Section II.
type Mode int

// Execution modes.
const (
	// Continuous keeps accelerator outputs accumulating in VM and writes
	// each OFM tile once when complete (Section II-A).
	Continuous Mode = iota
	// Intermittent writes every accelerator output and its progress
	// indicator straight back to NVM (Section II-B).
	Intermittent
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Continuous {
		return "continuous"
	}
	return "intermittent"
}

// CountLayer computes the cost counters for one layer under the given
// mask (nil = unpruned) and execution mode.
//
// Derivation. The block grid over W is ceil(M/TM)×ceil(K/TK); kept block
// b with rm rows and kk columns participates in ceil(N/TN) ops (one per
// output-column tile), producing rm outputs per output column: its job
// count is rm·N regardless of TN clipping, and its MAC count rm·kk·N.
// The engine's loop order is input-stationary (output-column tile, then
// k-block, then block row — the low-memory ordering of [2]): each kk×tn
// input tile is fetched once per k-panel and reused across all block
// rows, while every op fetches its own weight block. Partial sums
// accumulate in the VM-resident output panel; in intermittent mode each
// op's fresh outputs are additionally written straight to NVM
// (preservation is write-only in steady state — partials are re-read
// only during progress recovery). Because all kept blocks of a layer
// share TM/TK/N, intra-layer weights contribute identically to the job
// count while layers differ — the layer-wise criterion property of
// Section III-C.
//
//iprune:hotpath
//iprune:allow-budget analytic host-side characterization; loop bounds are layer geometry, not an on-device region
func CountLayer(spec *LayerSpec, mask *nn.BlockMask, mode Mode, cfg Config) Counts {
	if err := CheckMask(spec, mask); err != nil {
		panic(err.Error())
	}
	var c Counts
	eb := int64(cfg.ElemBytes)
	brs := ceilDiv(spec.M, spec.TM) // block rows
	bcs := ceilDiv(spec.K, spec.TK) // block cols
	nTiles := ceilDiv(spec.N, spec.TN)
	for br := 0; br < brs; br++ {
		rm := min(spec.TM, spec.M-br*spec.TM)
		seen := 0
		for bc := 0; bc < bcs; bc++ {
			if mask != nil && !mask.Keep[br*bcs+bc] {
				continue
			}
			kk := min(spec.TK, spec.K-bc*spec.TK)
			c.Ops += int64(nTiles)
			c.Jobs += int64(rm) * int64(spec.N)
			c.MACs += int64(rm) * int64(kk) * int64(spec.N)
			// Weight block fetched once per op (it stays in VM across the
			// op's outputs but is re-fetched per output-column tile).
			c.WeightRead += int64(nTiles) * int64(rm) * int64(kk) * eb
			if mode == Intermittent {
				c.OutputWrite += int64(rm) * int64(spec.N) * eb
				c.IndicatorWrite += int64(nTiles) * int64(cfg.IndicatorBytes)
			}
			seen++
		}
		if mode == Continuous && seen > 0 {
			// OFM row strip written once when its tiles complete.
			c.OutputWrite += int64(rm) * int64(spec.N) * eb
		}
	}
	// Input tiles are fetched once per surviving k-panel and reused
	// across block rows (input-stationary ordering).
	for bc := 0; bc < bcs; bc++ {
		kept := mask == nil
		if !kept {
			for br := 0; br < brs; br++ {
				if mask.Keep[br*bcs+bc] {
					kept = true
					break
				}
			}
		}
		if kept {
			kk := min(spec.TK, spec.K-bc*spec.TK)
			c.InputRead += int64(kk) * int64(spec.N) * eb
		}
	}
	return c
}

// CountNetwork sums CountLayer over all specs using the network's current
// masks.
func CountNetwork(net *nn.Network, specs []LayerSpec, mode Mode, cfg Config) Counts {
	prunables := net.Prunables()
	var total Counts
	for i := range specs {
		total.Add(CountLayer(&specs[i], prunables[i].Mask(), mode, cfg))
	}
	return total
}

// Observe registers the counters in a metrics registry under
// "tile/<name>/..." names, making the analytic cost model's view of a
// layer (or network total) part of a run's observable metrics.
func (c *Counts) Observe(m *obs.Metrics, name string) {
	p := "tile/" + name + "/"
	m.Counter(p + "ops").AddInt(c.Ops)
	m.Counter(p + "jobs").AddInt(c.Jobs)
	m.Counter(p + "macs").AddInt(c.MACs)
	m.Counter(p + "nvm_read_bytes").AddInt(c.TotalNVMRead())
	m.Counter(p + "nvm_write_bytes").AddInt(c.TotalNVMWrite())
}

// ObserveNetwork registers every prunable layer's analytic counters plus
// the network total in the registry, and returns the total. This is the
// static (schedule-derived) complement to the event-derived run metrics:
// jobs here are the iPrune pruning criterion.
func ObserveNetwork(m *obs.Metrics, net *nn.Network, specs []LayerSpec, mode Mode, cfg Config) Counts {
	prunables := net.Prunables()
	var total Counts
	for i := range specs {
		c := CountLayer(&specs[i], prunables[i].Mask(), mode, cfg)
		c.Observe(m, specs[i].Name)
		total.Add(c)
	}
	total.Observe(m, "total")
	return total
}

// LayerJobs returns the per-layer accelerator-output counts (the pruning
// criterion values) under the current masks.
func LayerJobs(net *nn.Network, specs []LayerSpec, cfg Config) []int64 {
	prunables := net.Prunables()
	out := make([]int64, len(specs))
	for i := range specs {
		out[i] = CountLayer(&specs[i], prunables[i].Mask(), Intermittent, cfg).Jobs
	}
	return out
}

// JobsPerBlock returns how many accelerator outputs one kept weight block
// of the layer contributes. Blocks in a row strip whose TM is clipped
// contribute less; this returns the full-block value used for criterion
// estimation.
func JobsPerBlock(spec *LayerSpec) int64 {
	return int64(min(spec.TM, spec.M)) * int64(spec.N)
}

// Diversity computes the coefficient of variation of per-layer job
// counts, the paper's "diversity among layers" (Table II: SQN low, HAR
// medium, CKS high).
//
//iprune:allow-float reporting statistic over job counts, not device numerics
func Diversity(jobs []int64) float64 {
	if len(jobs) == 0 {
		return 0
	}
	var mean float64
	for _, j := range jobs {
		mean += float64(j)
	}
	mean /= float64(len(jobs))
	if mean == 0 {
		return 0
	}
	var varsum float64
	for _, j := range jobs {
		d := float64(j) - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(jobs))) / mean
}

// DiversityLabel maps a coefficient of variation to the paper's
// low/medium/high labels.
func DiversityLabel(cv float64) string {
	switch {
	case cv < 0.85:
		return "Low"
	case cv < 1.5:
		return "Medium"
	default:
		return "High"
	}
}
