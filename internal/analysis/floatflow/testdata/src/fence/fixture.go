// Package fixture exercises floatflow's fence: every construct that
// crosses the rational/float boundary inside a fenced package must be
// flagged, exact rational operations must not.
package fixture

import (
	"math/big"

	"minimaxdp/internal/rational"
)

// LeakFloat loses exactness through the rational package's bridge.
func LeakFloat(a *big.Rat) float64 {
	return rational.Float(a) // want `call to rational\.Float in exact-arithmetic package`
}

// LeakFromFloat smuggles a float into the exact pipeline (fence and taint).
func LeakFromFloat(f float64) *big.Rat {
	r, err := rational.FromFloat(f) // want `call to rational\.FromFloat in exact-arithmetic package`
	if err != nil {
		return rational.Zero()
	}
	return r // want `exported LeakFromFloat returns float-tainted`
}

// ConvertInt is flagged even for integer operands: float64 must not
// appear in exact code at all.
func ConvertInt(n int) float64 {
	return float64(n) // want `float64 conversion in exact-arithmetic package`
}

// ConvertFloat32 covers the float32 kind.
func ConvertFloat32(n int) float32 {
	return float32(n) // want `float32 conversion in exact-arithmetic package`
}

// MethodEscape calls big.Rat's own float accessor directly.
func MethodEscape(a *big.Rat) float64 {
	f, exact := a.Float64() // want `call to \(\*math/big\.Rat\)\.Float64`
	_ = exact
	return f
}

// ExactOnly is the control: pure rational arithmetic stays silent.
func ExactOnly(a, b *big.Rat) *big.Rat {
	return rational.Add(rational.Mul(a, b), rational.One())
}

// Suppressed shows a justified escape hatch.
func Suppressed(a *big.Rat) float64 {
	//dpvet:ignore floatflow display-only rendering helper, exactness not required here
	return rational.Float(a)
}
