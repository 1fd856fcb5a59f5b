// Package rational is a miniature of internal/rational that seeds
// the overflow-boundary violations the ratoverflow analyzer must
// catch, beside the checked and fallback patterns it must pass. Its
// import path ends in internal/rational on purpose: suffix matching
// makes the fixture run under the production scope.
package rational

import (
	"math"
	"math/big"
)

// Small mirrors the production checked fixed-width rational.
type Small struct{ num, den int64 }

// MakeSmall is the checked constructor (allowlisted): the only place
// a non-empty Small literal is legal.
func MakeSmall(num, den int64) (Small, bool) {
	if den == 0 {
		return Small{}, false
	}
	if den < 0 {
		n, ok := negChecked(num)
		if !ok {
			return Small{}, false
		}
		d, ok := negChecked(den)
		if !ok {
			return Small{}, false
		}
		num, den = n, d
	}
	return Small{num: num, den: den}, true
}

// Rat is the exact big.Rat fallback.
func (s Small) Rat() *big.Rat { return big.NewRat(s.num, s.den) }

// Add is fully checked: every product and sum goes through a kernel,
// so it passes.
func Add(a, b Small) (Small, bool) {
	n1, ok := mulChecked(a.num, b.den)
	if !ok {
		return Small{}, false
	}
	n2, ok := mulChecked(b.num, a.den)
	if !ok {
		return Small{}, false
	}
	n, ok := addChecked(n1, n2)
	if !ok {
		return Small{}, false
	}
	d, ok := mulChecked(a.den, b.den)
	if !ok {
		return Small{}, false
	}
	return MakeSmall(n, d)
}

// AddFallback performs raw arithmetic but visibly lands on the
// big.Rat path, which exempts the function: overflow here changes
// speed, not results.
func AddFallback(a, b Small) *big.Rat {
	hint := a.num * b.den
	_ = hint
	return new(big.Rat).Add(a.Rat(), b.Rat())
}

// UncheckedAdd wraps silently on overflow: the finding ratoverflow
// exists for. One finding per line, not per operator.
func UncheckedAdd(a, b Small) Small {
	n := a.num*b.den + b.num*a.den // want `unchecked fixed-width arithmetic`
	d := a.den * b.den             // want `unchecked fixed-width arithmetic`
	s, _ := MakeSmall(n, d)
	return s
}

// Raw bypasses sign normalization and gcd reduction.
func Raw(n, d int64) Small {
	return Small{num: n, den: d} // want `bypasses the checked constructors`
}

// Bump mutates with an unchecked increment.
func Bump(s Small) Small {
	s.num++ // want `unchecked fixed-width arithmetic`
	return s
}

// Halve shifts without a width check.
func Halve(s Small) Small {
	out, _ := MakeSmall(s.num, s.den)
	out.den >>= 1 // want `unchecked fixed-width arithmetic`
	return out
}

// DenWords doubles an unsigned magnitude: uint64 arithmetic is
// fixed-width too and wraps just as silently.
func DenWords(s Small) uint64 {
	return uint64(s.den) * 2 // want `unchecked fixed-width arithmetic`
}

func negChecked(a int64) (int64, bool) {
	if a == math.MinInt64 {
		return 0, false
	}
	return -a, true
}

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}
