// Package loss defines the information-consumer loss functions of
// Section 2.3 of the paper and their validity check.
//
// A loss function l(i,r) gives the consumer's loss when the mechanism
// outputs r while the true count-query result is i. The paper assumes
// only that l is monotone non-decreasing in |i−r| for every i; this
// package ships the paper's three worked examples (mean error |i−r|,
// squared error (i−r)², and 0/1 frequency-of-error loss) plus several
// additional monotone families, an arbitrary-table escape hatch for
// tests, and a validator that checks the paper's monotonicity
// assumption on the domain {0..n}.
package loss

import (
	"errors"
	"fmt"
	"math/big"

	"minimaxdp/internal/rational"
)

// Function is a consumer loss function l(i,r) on the query-result
// domain. Implementations must be deterministic and side-effect free.
type Function interface {
	// Loss returns l(i,r) ≥ 0 for inputs i,r ∈ {0..n}.
	Loss(i, r int) *big.Rat
	// Name returns a short identifier for tables and logs.
	Name() string
}

func absDiff(i, r int) int64 {
	d := int64(i) - int64(r)
	if d < 0 {
		return -d
	}
	return d
}

// Absolute is the paper's mean-error loss l(i,r) = |i−r| (the
// government's loss in the running flu example).
type Absolute struct{}

// Loss returns |i−r|.
func (Absolute) Loss(i, r int) *big.Rat { return rational.Int(absDiff(i, r)) }

// Name implements Function.
func (Absolute) Name() string { return "absolute" }

// Squared is the paper's variance loss l(i,r) = (i−r)² (the drug
// company's loss in the running flu example).
type Squared struct{}

// Loss returns (i−r)².
func (Squared) Loss(i, r int) *big.Rat {
	d := absDiff(i, r)
	return rational.Int(d * d)
}

// Name implements Function.
func (Squared) Name() string { return "squared" }

// ZeroOne is the paper's frequency-of-error loss: 0 if i == r, 1
// otherwise.
type ZeroOne struct{}

// Loss returns 0 when i == r and 1 otherwise.
func (ZeroOne) Loss(i, r int) *big.Rat {
	if i == r {
		return rational.Zero()
	}
	return rational.One()
}

// Name implements Function.
func (ZeroOne) Name() string { return "zero-one" }

// Scaled multiplies an inner loss by a positive constant; scaling
// preserves the monotonicity assumption and the induced optimum.
type Scaled struct {
	Inner Function
	C     *big.Rat
}

// Loss returns C·Inner.Loss(i,r).
func (s Scaled) Loss(i, r int) *big.Rat { return rational.Mul(s.C, s.Inner.Loss(i, r)) }

// Name implements Function.
func (s Scaled) Name() string { return fmt.Sprintf("%s×%s", s.C.RatString(), s.Inner.Name()) }

// Deadband is zero within Width of the truth and grows linearly
// beyond: l(i,r) = max(0, |i−r| − Width). Models consumers indifferent
// to small errors.
type Deadband struct {
	Width int
}

// Loss returns max(0, |i−r|−Width).
func (d Deadband) Loss(i, r int) *big.Rat {
	v := absDiff(i, r) - int64(d.Width)
	if v < 0 {
		v = 0
	}
	return rational.Int(v)
}

// Name implements Function.
func (d Deadband) Name() string { return fmt.Sprintf("deadband(%d)", d.Width) }

// Capped clamps an inner loss at Cap: l = min(Inner, Cap). Still
// monotone when Inner is.
type Capped struct {
	Inner Function
	Cap   *big.Rat
}

// Loss returns min(Inner.Loss(i,r), Cap).
func (c Capped) Loss(i, r int) *big.Rat {
	v := c.Inner.Loss(i, r)
	if v.Cmp(c.Cap) > 0 {
		return rational.Clone(c.Cap)
	}
	return v
}

// Name implements Function.
func (c Capped) Name() string { return fmt.Sprintf("min(%s,%s)", c.Inner.Name(), c.Cap.RatString()) }

// Power is l(i,r) = |i−r|^K for K ≥ 1, interpolating between Absolute
// (K=1) and higher-order tail aversion.
type Power struct {
	K int
}

// Loss returns |i−r|^K.
func (p Power) Loss(i, r int) *big.Rat {
	if p.K < 1 {
		panic("loss: Power.K must be ≥ 1")
	}
	return rational.Pow(rational.Int(absDiff(i, r)), p.K)
}

// Name implements Function.
func (p Power) Name() string { return fmt.Sprintf("|i-r|^%d", p.K) }

// Asymmetric penalizes over-estimates and under-estimates at
// different rates: Over·(r−i) when r > i and Under·(i−r) when r < i.
//
// NOTE: unless Over == Under this violates the paper's assumption that
// loss is a monotone function of |i−r| alone; it exists so tests can
// exercise Validate's rejection path and so users can see the
// assumption is load-bearing.
type Asymmetric struct {
	Over, Under *big.Rat
}

// Loss returns the signed-error linear loss.
func (a Asymmetric) Loss(i, r int) *big.Rat {
	if r >= i {
		return rational.Mul(a.Over, rational.Int(int64(r-i)))
	}
	return rational.Mul(a.Under, rational.Int(int64(i-r)))
}

// Name implements Function.
func (a Asymmetric) Name() string {
	return fmt.Sprintf("asym(%s,%s)", a.Over.RatString(), a.Under.RatString())
}

// Table is an arbitrary loss given by an explicit (n+1)×(n+1) table;
// used by tests and by experiment harnesses that perturb losses.
type Table struct {
	Entries [][]*big.Rat
	Label   string
}

// Loss returns Entries[i][r].
func (t Table) Loss(i, r int) *big.Rat { return rational.Clone(t.Entries[i][r]) }

// Name implements Function.
func (t Table) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return "table"
}

// ErrNotMonotone is wrapped by Validate when the paper's assumption
// fails.
var ErrNotMonotone = errors.New("loss: not monotone in |i-r|")

// Validate checks the paper's Section 2.3 assumption on the domain
// {0..n}: for every i, l(i,r) must be non-decreasing in |i−r| (which
// in particular forces l(i, i−d) == l(i, i+d)), and l must be
// non-negative with l(i,i) minimal. It returns a descriptive error on
// the first violation.
func Validate(l Function, n int) error {
	for i := 0; i <= n; i++ {
		// prev is the loss at the previous distance: each distance must
		// carry a single value, non-decreasing across distances.
		prev := l.Loss(i, i)
		if prev.Sign() < 0 {
			return fmt.Errorf("%w: l(%d,%d) = %s < 0", ErrNotMonotone, i, i, prev.RatString())
		}
		for d := 1; d <= max(i, n-i); d++ {
			var below, above *big.Rat // l(i, i−d) and l(i, i+d), where in the domain
			if i-d >= 0 {
				below = l.Loss(i, i-d)
			}
			if i+d <= n {
				above = l.Loss(i, i+d)
			}
			if below != nil && below.Sign() < 0 || above != nil && above.Sign() < 0 {
				return fmt.Errorf("%w: negative loss l(%d,·) at distance %d", ErrNotMonotone, i, d)
			}
			v := below
			switch {
			case below == nil:
				v = above
			case above != nil && below.Cmp(above) != 0:
				return fmt.Errorf("%w: l(%d,%d)=%s != l(%d,%d)=%s but |i-r| equal",
					ErrNotMonotone, i, i-d, below.RatString(), i, i+d, above.RatString())
			}
			if v.Cmp(prev) < 0 {
				return fmt.Errorf("%w: l(%d,·) decreases at distance %d (%s < %s)",
					ErrNotMonotone, i, d, v.RatString(), prev.RatString())
			}
			prev = v
		}
	}
	return nil
}

// ValidateWeak checks only the weaker condition actually used in the
// paper's Lemma 5 proof: for every i, moving the output further from i
// (on either side independently) never decreases the loss. Asymmetric
// losses pass ValidateWeak but fail Validate.
func ValidateWeak(l Function, n int) error {
	for i := 0; i <= n; i++ {
		// Right side: r = i..n must be non-decreasing.
		for r := i; r < n; r++ {
			if l.Loss(i, r+1).Cmp(l.Loss(i, r)) < 0 {
				return fmt.Errorf("%w: l(%d,%d) > l(%d,%d)", ErrNotMonotone, i, r, i, r+1)
			}
		}
		// Left side: r = i..0 must be non-decreasing as r moves away.
		for r := i; r > 0; r-- {
			if l.Loss(i, r-1).Cmp(l.Loss(i, r)) < 0 {
				return fmt.Errorf("%w: l(%d,%d) > l(%d,%d)", ErrNotMonotone, i, r, i, r-1)
			}
		}
		if l.Loss(i, i).Sign() < 0 {
			return fmt.Errorf("%w: l(%d,%d) < 0", ErrNotMonotone, i, i)
		}
	}
	return nil
}

// Matrix materializes l on {0..n} as an explicit table, the form the
// LP builders consume.
func Matrix(l Function, n int) [][]*big.Rat {
	out := make([][]*big.Rat, n+1)
	for i := 0; i <= n; i++ {
		out[i] = make([]*big.Rat, n+1)
		for r := 0; r <= n; r++ {
			out[i][r] = l.Loss(i, r)
		}
	}
	return out
}
