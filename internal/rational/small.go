package rational

import (
	"math"
	"math/big"
	"math/bits"
)

// Small is a fixed-width rational: an int64 numerator over a positive
// int64 denominator, always in lowest terms. It exists as the fast
// path under big.Rat for the kernels (alias-table quantization,
// small-instance pivots) where every operand provably fits — but
// "provably" is enforced, not assumed: the only ways to obtain a
// Small are the checked constructors and the checked arithmetic
// methods, each of which reports overflow instead of wrapping, and
// every caller must either handle the failure or fall back to the
// exact big.Rat path, as Hval's fused ops do. The dpvet ratoverflow
// analyzer polices this boundary: raw int64 arithmetic in this
// package is confined to the named checked kernels below.
type Small struct {
	num, den int64 // den > 0, gcd(|num|, den) == 1; zero value is 0/1 via accessors
}

// MakeSmall returns num/den reduced to lowest terms. It reports
// failure when den == 0 or when sign normalization or reduction would
// overflow (both operands at math.MinInt64 edges).
func MakeSmall(num, den int64) (Small, bool) {
	if den == 0 {
		return Small{}, false
	}
	if den < 0 {
		var ok bool
		if num, ok = negChecked(num); !ok {
			return Small{}, false
		}
		if den, ok = negChecked(den); !ok {
			return Small{}, false
		}
	}
	if num == math.MinInt64 {
		// |num| is not representable, so the reduced numerator cannot
		// be either unless the gcd shrinks it; computing |num| would
		// already overflow, so reject the edge outright.
		return Small{}, false
	}
	g := gcd64(abs64(num), den)
	if g > 1 {
		num = divExact(num, g)
		den = divExact(den, g)
	}
	return Small{num: num, den: den}, true
}

// SmallFromRat converts r to a Small, reporting failure when either
// component exceeds int64.
func SmallFromRat(r *big.Rat) (Small, bool) {
	if !r.Num().IsInt64() || !r.Denom().IsInt64() {
		return Small{}, false
	}
	return MakeSmall(r.Num().Int64(), r.Denom().Int64())
}

// Num returns the numerator (negative iff the value is negative).
func (s Small) Num() int64 { return s.num }

// Den returns the positive denominator (1 for the zero value).
func (s Small) Den() int64 {
	if s.den == 0 {
		return 1
	}
	return s.den
}

// Rat returns the exact big.Rat value of s — the fallback every
// overflow path lands on.
func (s Small) Rat() *big.Rat { return big.NewRat(s.num, s.Den()) }

// Sign returns -1, 0, or +1.
func (s Small) Sign() int {
	switch {
	case s.num < 0:
		return -1
	case s.num > 0:
		return 1
	}
	return 0
}

// IsZero reports whether s == 0.
func (s Small) IsZero() bool { return s.num == 0 }

// Add returns s+t, reporting failure on overflow.
func (s Small) Add(t Small) (Small, bool) {
	ad, ok := mulChecked(s.num, t.Den())
	if !ok {
		return Small{}, false
	}
	bc, ok := mulChecked(t.num, s.Den())
	if !ok {
		return Small{}, false
	}
	num, ok := addChecked(ad, bc)
	if !ok {
		return Small{}, false
	}
	den, ok := mulChecked(s.Den(), t.Den())
	if !ok {
		return Small{}, false
	}
	return MakeSmall(num, den)
}

// Sub returns s−t, reporting failure on overflow.
func (s Small) Sub(t Small) (Small, bool) {
	nt, ok := t.Neg()
	if !ok {
		return Small{}, false
	}
	return s.Add(nt)
}

// Mul returns s·t, reporting failure on overflow.
func (s Small) Mul(t Small) (Small, bool) {
	// Cross-reduce first so products stay as small as possible.
	a, b := s, t
	if g := gcd64(abs64(a.num), b.Den()); g > 1 {
		a.num = divExact(a.num, g)
		b.den = divExact(b.Den(), g)
	}
	if g := gcd64(abs64(b.num), a.Den()); g > 1 {
		b.num = divExact(b.num, g)
		a.den = divExact(a.Den(), g)
	}
	num, ok := mulChecked(a.num, b.num)
	if !ok {
		return Small{}, false
	}
	den, ok := mulChecked(a.Den(), b.Den())
	if !ok {
		return Small{}, false
	}
	return MakeSmall(num, den)
}

// Quo returns s/t, reporting failure on overflow or t == 0.
func (s Small) Quo(t Small) (Small, bool) {
	if t.num == 0 {
		return Small{}, false
	}
	num, ok := mulChecked(s.num, t.Den())
	if !ok {
		return Small{}, false
	}
	den, ok := mulChecked(s.Den(), t.num)
	if !ok {
		return Small{}, false
	}
	return MakeSmall(num, den)
}

// Neg returns −s, reporting failure at the math.MinInt64 edge.
func (s Small) Neg() (Small, bool) {
	num, ok := negChecked(s.num)
	if !ok {
		return Small{}, false
	}
	return MakeSmall(num, s.Den())
}

// FMS returns s − b·c, reporting failure on overflow: the fused
// multiply-subtract at the heart of LU elimination and simplex basis
// updates. It composes the checked Mul and Sub, so the raw arithmetic
// stays inside the named kernels.
func (s Small) FMS(b, c Small) (Small, bool) {
	p, ok := b.Mul(c)
	if !ok {
		return Small{}, false
	}
	return s.Sub(p)
}

// Cmp compares s and t exactly (-1, 0, +1) without overflow: the
// cross products are formed in 128 bits.
func (s Small) Cmp(t Small) int {
	lhsHi, lhsLo, lhsNeg := mul64To128(s.num, t.Den())
	rhsHi, rhsLo, rhsNeg := mul64To128(t.num, s.Den())
	switch {
	case lhsNeg && !rhsNeg:
		return -1
	case !lhsNeg && rhsNeg:
		return 1
	}
	// Same sign: compare magnitudes, inverted when both negative.
	cmp := 0
	switch {
	case lhsHi != rhsHi:
		if lhsHi < rhsHi {
			cmp = -1
		} else {
			cmp = 1
		}
	case lhsLo != rhsLo:
		if lhsLo < rhsLo {
			cmp = -1
		} else {
			cmp = 1
		}
	}
	if lhsNeg {
		cmp = -cmp
	}
	return cmp
}

// ---- checked kernels ----
//
// These are the only functions in the package allowed to perform raw
// fixed-width arithmetic; the ratoverflow analyzer's kernel allowlist
// names them. Keep them tiny and obviously correct.

// addChecked returns a+b, reporting overflow.
func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// subChecked returns a−b, reporting overflow.
func subChecked(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

// mulChecked returns a·b, reporting overflow.
func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		// MinInt64 times anything but 1 overflows, and the p/b probe
		// below would itself fault on MinInt64 / -1.
		if a == 1 {
			return b, true
		}
		if b == 1 {
			return a, true
		}
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// negChecked returns −a, reporting overflow at math.MinInt64.
func negChecked(a int64) (int64, bool) {
	if a == math.MinInt64 {
		return 0, false
	}
	return -a, true
}

// abs64 returns |a| for a != math.MinInt64 (callers guard the edge).
func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// divExact returns a/b for positive b dividing a exactly (gcd
// reduction); |a/b| ≤ |a| for b ≥ 1, so it cannot overflow.
func divExact(a, b int64) int64 { return a / b }

// gcd64 returns gcd(a, b) for non-negative inputs (gcd(0, b) == b).
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mul64To128 returns |a·b| as a 128-bit magnitude plus the product's
// sign. Inputs at math.MinInt64 are handled: the magnitude 2⁶³ fits
// in the unsigned 128-bit product.
func mul64To128(a, b int64) (hi, lo uint64, neg bool) {
	neg = (a < 0) != (b < 0)
	ua := uint64(a)
	if a < 0 {
		ua = -ua
	}
	ub := uint64(b)
	if b < 0 {
		ub = -ub
	}
	hi, lo = bits.Mul64(ua, ub)
	if hi == 0 && lo == 0 {
		neg = false
	}
	return hi, lo, neg
}
