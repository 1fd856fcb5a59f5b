// Package rational provides exact arithmetic helpers over math/big.Rat.
//
// The entire optimality pipeline of this library (mechanism matrices,
// determinants, simplex pivots, loss comparisons) runs on exact
// rationals so that every theorem check from the paper is a true
// equality, not a floating-point approximation. This package collects
// the small constructors and comparison utilities that the rest of the
// code base uses so that call sites stay terse.
package rational

import (
	"fmt"
	"math/big"
	"strings"
)

// New returns the rational p/q. It panics if q == 0, which is a
// programmer error at every call site in this module.
func New(p, q int64) *big.Rat {
	if q == 0 {
		panic("rational: zero denominator")
	}
	return big.NewRat(p, q)
}

// Int returns the rational n/1.
func Int(n int64) *big.Rat { return big.NewRat(n, 1) }

// Zero returns a fresh rational equal to 0.
func Zero() *big.Rat { return new(big.Rat) }

// One returns a fresh rational equal to 1.
func One() *big.Rat { return big.NewRat(1, 1) }

// Clone returns a fresh copy of x.
func Clone(x *big.Rat) *big.Rat { return new(big.Rat).Set(x) }

// Parse converts a string such as "3/4", "-1/98", "2", or "0.25" into
// a rational. It accepts only decimal integers, fractions a/b and
// plain decimals, and returns an error for anything else: for
// malformed input, and also for the exponent and base-prefix forms
// big.Rat.SetString would take ("1e-9999", "0x1p-99999"). Those let a
// few bytes expand into a number with millions of digits; without
// them the numerator and denominator each have at most about 3.4 bits
// per input byte, so an untrusted string costs no more than its
// length.
func Parse(s string) (*big.Rat, error) {
	s = strings.TrimSpace(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && c != '/' && c != '.' && c != '-' && c != '+' {
			return nil, fmt.Errorf("rational: cannot parse %q: want an integer, a/b or a plain decimal", s)
		}
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("rational: cannot parse %q", s)
	}
	return r, nil
}

// MustParse is Parse for compile-time-known literals; it panics on
// malformed input.
func MustParse(s string) *big.Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Add returns a fresh rational a+b.
func Add(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }

// Sub returns a fresh rational a−b.
func Sub(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) }

// Mul returns a fresh rational a·b.
func Mul(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) }

// Div returns a fresh rational a/b. It panics if b == 0.
func Div(a, b *big.Rat) *big.Rat {
	if b.Sign() == 0 {
		panic("rational: division by zero")
	}
	return new(big.Rat).Quo(a, b)
}

// Neg returns a fresh rational −a.
func Neg(a *big.Rat) *big.Rat { return new(big.Rat).Neg(a) }

// Abs returns a fresh rational |a|.
func Abs(a *big.Rat) *big.Rat { return new(big.Rat).Abs(a) }

// Pow returns a fresh rational a^k for k ≥ 0 (a^0 = 1).
func Pow(a *big.Rat, k int) *big.Rat {
	if k < 0 {
		panic("rational: negative exponent")
	}
	out := One()
	base := Clone(a)
	for k > 0 {
		if k&1 == 1 {
			out.Mul(out, base)
		}
		base.Mul(base, base)
		k >>= 1
	}
	return out
}

// Cmp compares a and b: −1 if a<b, 0 if a==b, +1 if a>b.
func Cmp(a, b *big.Rat) int { return a.Cmp(b) }

// Equal reports whether a == b exactly.
func Equal(a, b *big.Rat) bool { return a.Cmp(b) == 0 }

// Less reports whether a < b.
func Less(a, b *big.Rat) bool { return a.Cmp(b) < 0 }

// LessEq reports whether a ≤ b.
func LessEq(a, b *big.Rat) bool { return a.Cmp(b) <= 0 }

// IsZero reports whether a == 0.
func IsZero(a *big.Rat) bool { return a.Sign() == 0 }

// IsNonNegative reports whether a ≥ 0.
func IsNonNegative(a *big.Rat) bool { return a.Sign() >= 0 }

// Min returns a fresh copy of the smaller of a and b.
func Min(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return Clone(a)
	}
	return Clone(b)
}

// Max returns a fresh copy of the larger of a and b.
func Max(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) >= 0 {
		return Clone(a)
	}
	return Clone(b)
}

// Sum returns the sum of xs as a fresh rational (0 for an empty slice).
func Sum(xs []*big.Rat) *big.Rat {
	out := Zero()
	for _, x := range xs {
		out.Add(out, x)
	}
	return out
}

// Dot returns Σ a[i]·b[i]. It panics on length mismatch.
func Dot(a, b []*big.Rat) *big.Rat {
	if len(a) != len(b) {
		panic("rational: dot length mismatch")
	}
	out := Zero()
	tmp := Zero()
	for i := range a {
		tmp.Mul(a[i], b[i])
		out.Add(out, tmp)
	}
	return out
}

// maxExactFloat is 2⁵³: every integer of smaller magnitude is a float64.
const maxExactFloat = 1 << 53

// Float returns the float64 value nearest to a. When the numerator
// and the denominator are both below 2⁵³ in magnitude, each is exact
// as a float64 and one IEEE division gives the correctly rounded
// (nearest, ties to even) quotient, which is what big.Rat.Float64
// returns; that path allocates nothing. Wider values take
// big.Rat.Float64.
func Float(a *big.Rat) float64 {
	if num := a.Num(); num.IsInt64() {
		if n := num.Int64(); -maxExactFloat < n && n < maxExactFloat {
			if a.IsInt() {
				return float64(n)
			}
			if den := a.Denom(); den.IsInt64() && den.Int64() < maxExactFloat {
				return float64(n) / float64(den.Int64())
			}
		}
	}
	f, _ := a.Float64()
	return f
}

// String formats a like "3/4" or "2" (denominator 1 suppressed).
func String(a *big.Rat) string {
	return a.RatString()
}

// FromFloat converts a float64 to an exact rational. Only use for
// display-adjacent code paths; core algorithms take rationals directly.
func FromFloat(f float64) (*big.Rat, error) {
	r := new(big.Rat).SetFloat64(f)
	if r == nil {
		return nil, fmt.Errorf("rational: %v is not finite", f)
	}
	return r, nil
}

// Vector returns a fresh slice of n zeros.
func Vector(n int) []*big.Rat {
	v := make([]*big.Rat, n)
	for i := range v {
		v[i] = Zero()
	}
	return v
}

// CloneVector deep-copies a vector.
func CloneVector(v []*big.Rat) []*big.Rat {
	out := make([]*big.Rat, len(v))
	for i, x := range v {
		out[i] = Clone(x)
	}
	return out
}

// VectorEqual reports whether two vectors are elementwise equal.
func VectorEqual(a, b []*big.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			return false
		}
	}
	return true
}
