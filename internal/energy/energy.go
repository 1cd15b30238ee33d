// Package energy is the single source of truth for pricing work in
// joules. Both the hawaii cost simulator (dynamic pricing of scheduled
// accelerator ops) and the regionbudget static analyzer (worst-case
// pricing of preserve-to-preserve source regions) draw their per-op
// cost tables from here, so the two views of "what does this work
// cost" cannot drift apart: the simulator's panic threshold and the
// analyzer's static budget are the same number, read from the same
// table. Divergence between the two was previously possible because
// the cost arithmetic lived inline in hawaii.CostSim; it is now a
// compile error (there is one copy) and a test failure
// (TestOpCostMatchesEnergyModel in internal/hawaii).
//
// The Model also defines the default region budget: the usable energy
// of one power cycle of the paper's harvesting buffer. The central
// intermittence invariant — every atomic progress region completes
// within one buffer charge — is checked dynamically by the cost sim
// (hawaii.ErrOpExceedsBuffer) and statically by the regionbudget
// analyzer against this same quantity.
package energy

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"iprune/internal/device"
	"iprune/internal/power"
)

// Model prices work against a device profile and the harvesting
// buffer that bounds how much of it one power cycle can afford.
type Model struct {
	Dev device.Profile
	// BufferJ is the usable energy of one power cycle: the budget an
	// atomic progress region must fit in.
	BufferJ float64
}

// Default returns the paper's platform: the MSP430FR5994 profile and
// the 100 µF / 2.8 V / 2.4 V capacitor buffer.
func Default() Model {
	return Model{
		Dev:     device.MSP430FR5994(),
		BufferJ: power.DefaultBuffer().UsableEnergy(),
	}
}

// CPUOpJ is the energy of one CPU-side scalar operation, priced as one
// core cycle of base power. The static analyzer uses it to bound the
// arithmetic between NVM transactions; it is deliberately the cheapest
// unit in the table — regions are dominated by NVM traffic and MACs,
// and the paper's ratios depend on that ordering.
func (m Model) CPUOpJ() float64 {
	return m.Dev.BasePower * m.Dev.MACTime
}

// MACJ prices macs multiply-accumulates on the accelerator.
func (m Model) MACJ(macs int64) float64 {
	return m.Dev.ComputeEnergy(macs)
}

// NVMReadJ prices one read transaction of n bytes, folding in the base
// power drawn over the transfer's elapsed time (the simulator charges
// base power against wall-clock; a static bound must fold it into the
// per-transaction price).
func (m Model) NVMReadJ(n int64) float64 {
	return m.Dev.TransferEnergyOf(n, false) + m.Dev.BasePower*m.Dev.TransferTime(n, false)
}

// NVMWriteJ prices one write transaction of n bytes, base power
// included.
func (m Model) NVMWriteJ(n int64) float64 {
	return m.Dev.TransferEnergyOf(n, true) + m.Dev.BasePower*m.Dev.TransferTime(n, true)
}

// OpCost prices one accelerator op: readBytes stream in, the
// accelerator runs macs MACs while writeBytes stream out. Overlapped
// ops (intermittent mode's pipelined preservation) expose
// max(compute, write); serialized ones (continuous mode, task-level
// preservation) the sum. This is the pricing core of
// hawaii.CostSim.opCost.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (m Model) OpCost(macs, readBytes, writeBytes int64, overlapped bool) (t, e float64) {
	d := &m.Dev
	readT := d.TransferTime(readBytes, false)
	compT := d.ComputeTime(macs)
	var writeT float64
	if writeBytes > 0 {
		writeT = d.TransferTime(writeBytes, true)
	}
	exposed := compT
	if overlapped {
		if writeT > exposed {
			exposed = writeT
		}
	} else {
		exposed = compT + writeT
	}
	t = d.OpOverheadTime + readT + exposed
	e = d.BasePower*t + d.ComputeEnergy(macs) + d.TransferEnergyOf(readBytes, false)
	if writeBytes > 0 {
		e += d.TransferEnergyOf(writeBytes, true)
	}
	return t, e
}

// RecoveryCost prices progress recovery after a failure: reboot, the
// progress-indicator read of idxBytes, and the refetch of the
// interrupted op's tile data. This is the pricing core of
// hawaii.CostSim.recoveryCost.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (m Model) RecoveryCost(idxBytes, refetchBytes int64) (t, e float64) {
	d := &m.Dev
	t = d.RebootTime + d.TransferTime(idxBytes, false) + d.TransferTime(refetchBytes, false)
	e = d.RebootEnergy + d.BasePower*t + d.TransferEnergyOf(idxBytes, false) + d.TransferEnergyOf(refetchBytes, false)
	return t, e
}

// Budget is a declared per-function region budget: exactly one of the
// two dimensions is set.
type Budget struct {
	Joules float64 // > 0 when the budget is energy-dimensioned
	Ops    int64   // > 0 when the budget counts abstract CPU ops
}

// String renders the budget the way ParseBudget accepts it.
func (b Budget) String() string {
	if b.Ops > 0 {
		return fmt.Sprintf("%dops", b.Ops)
	}
	return FormatJ(b.Joules)
}

// ParseBudget parses the //iprune:budget directive argument: either an
// abstract op count ("20000ops") or a quantity of joules with an SI
// suffix ("104uJ", "1.5mJ", "2e-5J").
//
//iprune:allow-float budgets are joules, parsed once per directive, never device numerics
func ParseBudget(s string) (Budget, error) {
	s = strings.TrimSpace(s)
	if rest, ok := strings.CutSuffix(s, "ops"); ok {
		n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil || n <= 0 {
			return Budget{}, fmt.Errorf("energy: bad op budget %q (want e.g. \"20000ops\")", s)
		}
		return Budget{Ops: n}, nil
	}
	scale := 1.0
	num := s
	for _, suf := range []struct {
		text  string
		scale float64
	}{{"nJ", 1e-9}, {"uJ", 1e-6}, {"mJ", 1e-3}, {"J", 1}} {
		if rest, ok := strings.CutSuffix(s, suf.text); ok {
			scale, num = suf.scale, strings.TrimSpace(rest)
			break
		}
	}
	if num == s {
		return Budget{}, fmt.Errorf("energy: budget %q needs a unit (nJ|uJ|mJ|J|ops)", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	// Checked after scaling: a tiny value underflows to zero joules.
	j := v * scale
	if err != nil || j <= 0 || math.IsInf(j, 0) || math.IsNaN(j) {
		return Budget{}, fmt.Errorf("energy: bad energy budget %q", s)
	}
	return Budget{Joules: j}, nil
}

// FormatJ renders an energy in the largest SI unit that keeps the
// mantissa >= 1, with three significant digits — deterministic, so
// analyzer diagnostics and cache entries stay byte-identical across
// runs.
//
//iprune:allow-float diagnostic formatting of joule quantities
func FormatJ(j float64) string {
	switch {
	case j >= 1 || j == 0:
		return fmt.Sprintf("%.3gJ", j)
	case j >= 1e-3:
		return fmt.Sprintf("%.3gmJ", j*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3guJ", j*1e6)
	default:
		return fmt.Sprintf("%.3gnJ", j*1e9)
	}
}
