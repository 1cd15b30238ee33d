package power

import (
	"math"
	"testing"
)

// FuzzParseSupply checks the supply-string contract: malformed input is
// an error, never a panic, and a parsed supply has a finite positive
// power and parses back from its own name unchanged.
func FuzzParseSupply(f *testing.F) {
	for _, s := range []string{"continuous", "Strong", "weak", "6mW", "0.5MW", "2e1mw", "-3mW", "NaNmW", "mW", "8W"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		sup, err := ParseSupply(name)
		if err != nil {
			return
		}
		if !(sup.Power > 0) || math.IsInf(sup.Power, 0) {
			t.Fatalf("ParseSupply(%q) = %+v: power must be finite and positive", name, sup)
		}
		again, err := ParseSupply(sup.Name)
		if err != nil || again != sup {
			t.Fatalf("ParseSupply(%q) = %+v, but its name parses to %+v, %v", name, sup, again, err)
		}
	})
}
