package energy

import (
	"math"
	"testing"
)

// FuzzParseBudget checks the //iprune:budget contract: malformed input
// is an error, never a panic, and a parsed budget sets exactly one
// dimension to a finite positive value that String renders back into a
// parseable budget of the same dimension.
func FuzzParseBudget(f *testing.F) {
	for _, s := range []string{"20000ops", "104uJ", "1.5mJ", "2e-5J", "250nJ", " 3 ops ", "0ops", "-1uJ", "1e400J", "uJ", "12"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseBudget(s)
		if err != nil {
			return
		}
		energyDim := b.Joules > 0 && !math.IsInf(b.Joules, 0)
		if energyDim == (b.Ops > 0) || b.Ops < 0 || !energyDim && b.Joules != 0 {
			t.Fatalf("ParseBudget(%q) = %+v: want exactly one positive dimension", s, b)
		}
		again, err := ParseBudget(b.String())
		if err != nil || (again.Ops > 0) != (b.Ops > 0) {
			t.Fatalf("ParseBudget(%q) = %+v renders as %q, which parses to %+v, %v", s, b, b.String(), again, err)
		}
	})
}
