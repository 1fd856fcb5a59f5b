// Package mechanism implements oblivious privacy mechanisms for count
// queries as row-stochastic matrices on {0..n}, the α-differential
// privacy check of Definition 2, and the paper's range-restricted
// geometric mechanism G_{n,α} of Definition 4. (The unrestricted
// two-sided geometric noise of Definition 1 has no finite matrix; it
// lives in internal/sample.)
//
// An oblivious mechanism x is stored as an (n+1)×(n+1) matrix with
// x[i][r] = Pr[output r | true query result i]; rows index true
// results and columns index released results, matching the paper's
// notation throughout. Every draw from a row goes through that row's
// certified dyadic alias table (AliasRow).
package mechanism

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync/atomic"

	"minimaxdp/internal/matrix"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/sample"
)

// Mechanism is an oblivious privacy mechanism for a count query with
// results in {0..n}. It is immutable after construction.
type Mechanism struct {
	m *matrix.Matrix

	// alias holds one alias table per row, published by AliasRow on
	// the row's first draw and immutable afterwards. It belongs to m:
	// whatever replaces m replaces alias too (see wrap).
	alias []atomic.Pointer[sample.DyadicAlias]
}

// wrap makes a Mechanism around a validated matrix, with no row's
// alias table built yet.
func wrap(m *matrix.Matrix) *Mechanism {
	return &Mechanism{m: m, alias: make([]atomic.Pointer[sample.DyadicAlias], m.Rows())}
}

// ErrNotStochastic is returned when a candidate matrix has a negative
// entry or a row that does not sum to exactly 1.
var ErrNotStochastic = errors.New("mechanism: matrix is not row-stochastic")

// New validates that m is a square row-stochastic matrix and wraps it
// as a Mechanism. The matrix is deep-copied.
func New(m *matrix.Matrix) (*Mechanism, error) {
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("mechanism: matrix must be square, got %dx%d", m.Rows(), m.Cols())
	}
	if !m.IsStochastic() {
		return nil, ErrNotStochastic
	}
	return wrap(m.Clone()), nil
}

// FromStrings builds a mechanism from rational string entries; a
// convenience for transcribing the paper's tables.
func FromStrings(rows [][]string) (*Mechanism, error) {
	m, err := matrix.FromStrings(rows)
	if err != nil {
		return nil, err
	}
	return New(m)
}

// N returns the database size n; inputs and outputs range over {0..n}.
func (mc *Mechanism) N() int { return mc.m.Rows() - 1 }

// Size returns n+1, the number of inputs/outputs.
func (mc *Mechanism) Size() int { return mc.m.Rows() }

// Prob returns Pr[output r | true result i].
func (mc *Mechanism) Prob(i, r int) *big.Rat { return rational.Clone(mc.m.At(i, r)) }

// Row returns the output distribution for input i.
func (mc *Mechanism) Row(i int) []*big.Rat { return mc.m.Row(i) }

// Matrix returns a deep copy of the underlying matrix.
func (mc *Mechanism) Matrix() *matrix.Matrix { return mc.m.Clone() }

// Equal reports whether two mechanisms have identical matrices.
func (mc *Mechanism) Equal(o *Mechanism) bool { return mc.m.Equal(o.m) }

// String renders the mechanism's matrix with exact entries.
func (mc *Mechanism) String() string { return mc.m.String() }

// DPViolation describes the first differential-privacy violation
// found by CheckDP.
type DPViolation struct {
	I, R  int      // adjacent inputs (I, I+1) and output R
	Ratio *big.Rat // the offending probability comparison, described in Msg
	Msg   string
}

func (v *DPViolation) Error() string { return v.Msg }

// CheckDP verifies Definition 2: for every i ∈ {0..n−1} and r ∈ N,
// x[i][r] ≥ α·x[i+1][r] and x[i+1][r] ≥ α·x[i][r]. It returns nil when
// the mechanism is α-differentially private and a *DPViolation
// otherwise. α must lie in [0,1].
func (mc *Mechanism) CheckDP(alpha *big.Rat) error {
	if alpha.Sign() < 0 || alpha.Cmp(rational.One()) > 0 {
		return fmt.Errorf("mechanism: α must be in [0,1], got %s", alpha.RatString())
	}
	n := mc.N()
	tmp := rational.Zero()
	for i := 0; i < n; i++ {
		for r := 0; r <= n; r++ {
			a, b := mc.m.At(i, r), mc.m.At(i+1, r)
			tmp.Mul(alpha, b)
			if a.Cmp(tmp) < 0 {
				return &DPViolation{I: i, R: r, Ratio: rational.Clone(a),
					Msg: fmt.Sprintf("mechanism: x[%d][%d]=%s < α·x[%d][%d]=%s", i, r, a.RatString(), i+1, r, tmp.RatString())}
			}
			tmp.Mul(alpha, a)
			if b.Cmp(tmp) < 0 {
				return &DPViolation{I: i, R: r, Ratio: rational.Clone(b),
					Msg: fmt.Sprintf("mechanism: x[%d][%d]=%s < α·x[%d][%d]=%s", i+1, r, b.RatString(), i, r, tmp.RatString())}
			}
		}
	}
	return nil
}

// IsDP reports whether the mechanism is α-differentially private.
func (mc *Mechanism) IsDP(alpha *big.Rat) bool { return mc.CheckDP(alpha) == nil }

// BestAlpha returns the largest α ∈ [0,1] for which the mechanism is
// α-DP: min over adjacent inputs i and outputs r of
// min(x[i][r], x[i+1][r]) / max(x[i][r], x[i+1][r]), where a pair with
// exactly one zero forces α = 0 and a pair of two zeros imposes no
// constraint. (Larger α means a stronger privacy guarantee.)
func (mc *Mechanism) BestAlpha() *big.Rat {
	best := rational.One()
	n := mc.N()
	for i := 0; i < n; i++ {
		for r := 0; r <= n; r++ {
			a, b := mc.m.At(i, r), mc.m.At(i+1, r)
			za, zb := a.Sign() == 0, b.Sign() == 0
			if za && zb {
				continue
			}
			if za || zb {
				return rational.Zero()
			}
			ratio := new(big.Rat).Quo(a, b)
			if ratio.Cmp(rational.One()) > 0 {
				ratio.Inv(ratio)
			}
			if ratio.Cmp(best) < 0 {
				best = ratio
			}
		}
	}
	return rational.Clone(best)
}

// PostProcess applies a consumer interaction T (a row-stochastic
// (n+1)×(n+1) matrix of reinterpretation probabilities, Definition 3)
// and returns the induced mechanism x = y·T. Probability entries are
// mostly tiny rationals, so the product runs on the int64 Small tier
// of matrix.Mul.
func (mc *Mechanism) PostProcess(t *matrix.Matrix) (*Mechanism, error) {
	if !t.IsStochastic() {
		return nil, fmt.Errorf("mechanism: post-processing matrix: %w", ErrNotStochastic)
	}
	prod, err := mc.m.Mul(t)
	if err != nil {
		return nil, err
	}
	return New(prod)
}

// AliasRow returns the certified dyadic alias table of row i (see
// sample.DyadicAlias): its induced law is within 2^−(64−k) of the
// exact row per outcome, where 2^k ≥ n+1 is the table length, and
// zero-probability outputs are never drawn. The table is built on the
// row's first use and shared by every later caller. Concurrent first
// calls may each build one; the first to publish wins and all of them
// return it.
func (mc *Mechanism) AliasRow(i int) *sample.DyadicAlias {
	if i < 0 || i > mc.N() {
		panic(fmt.Sprintf("mechanism: input %d out of range [0,%d]", i, mc.N()))
	}
	slot := &mc.alias[i]
	if a := slot.Load(); a != nil {
		return a
	}
	a, err := sample.NewDyadicAlias(mc.m.Row(i))
	if err != nil {
		// Unreachable for a validated row: a non-negative vector
		// summing to 1 always yields a certified table.
		panic(fmt.Sprintf("mechanism: alias table for row %d: %v", i, err))
	}
	if !slot.CompareAndSwap(nil, a) {
		return slot.Load()
	}
	return a
}

// Sample draws one released result for true input i from one word of
// rng, through row i's alias table (AliasRow): one index and one
// integer compare, no float arithmetic and no allocation once the
// table exists.
//
// rng is caller-owned and not synchronized; for a concurrency-safe
// high-throughput path use the engine's precompiled samplers.
func (mc *Mechanism) Sample(i int, rng *rand.Rand) int {
	return mc.AliasRow(i).Sample(rng)
}

// --- the geometric mechanism ---------------------------------------------

// Geometric returns the range-restricted α-geometric mechanism G_{n,α}
// of Definition 4:
//
//	Pr[Z(k) = z] = α^{|z−k|}/(1+α)        for z ∈ {0, n}
//	Pr[Z(k) = z] = α^{|z−k|}·(1−α)/(1+α)  for 0 < z < n
//
// Equivalently: add two-sided geometric noise (Definition 1) to the
// true result k and clamp the sum into [0, n]; the clamped tail mass
// collapses onto the endpoints, giving exactly the boundary masses
// above. α must lie in (0,1) for the matrix form to be well defined.
func Geometric(n int, alpha *big.Rat) (*Mechanism, error) {
	if n < 1 {
		return nil, fmt.Errorf("mechanism: n must be ≥ 1, got %d", n)
	}
	if alpha.Sign() <= 0 || alpha.Cmp(rational.One()) >= 0 {
		return nil, fmt.Errorf("mechanism: geometric needs α ∈ (0,1), got %s", alpha.RatString())
	}
	onePlus := rational.Add(rational.One(), alpha)
	boundary := rational.Div(rational.One(), onePlus)                      // 1/(1+α)
	interior := rational.Div(rational.Sub(rational.One(), alpha), onePlus) // (1−α)/(1+α)
	pow := make([]*big.Rat, n+1)
	for d := 0; d <= n; d++ {
		pow[d] = rational.Pow(alpha, d)
	}
	m := matrix.New(n+1, n+1)
	for k := 0; k <= n; k++ {
		for z := 0; z <= n; z++ {
			d := k - z
			if d < 0 {
				d = -d
			}
			c := interior
			if z == 0 || z == n {
				c = boundary
			}
			m.Set(k, z, rational.Mul(c, pow[d]))
		}
	}
	return New(m)
}

// GeometricPrime returns the paper's G′_{n,α} (Table 2): interior
// columns of G_{n,α} scaled by (1+α)/(1−α) and the boundary columns 0
// and n scaled by (1+α). Both scalings cancel the respective
// normalization factors of G, so G′ is exactly the Toeplitz matrix
// with entries α^{|i−j|}. Used by Lemma 1 and the Table 2
// reproduction.
func GeometricPrime(n int, alpha *big.Rat) (*matrix.Matrix, error) {
	g, err := Geometric(n, alpha)
	if err != nil {
		return nil, err
	}
	onePlus := rational.Add(rational.One(), alpha)
	interiorScale := rational.Div(onePlus, rational.Sub(rational.One(), alpha))
	m := g.Matrix()
	out := matrix.New(n+1, n+1)
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			s := interiorScale
			if j == 0 || j == n {
				s = onePlus
			}
			out.Set(i, j, rational.Mul(m.At(i, j), s))
		}
	}
	return out, nil
}

// GeometricDet returns det G_{n,α} via the closed form proved in
// Lemma 1: det G′ = (1−α²)^{n}, and det G = det G′ / ((1+α)² ·
// ((1+α)/(1−α))^{n−1}). (Here the matrix is (n+1)×(n+1); the paper's
// Lemma 1 indexes by matrix dimension.)
func GeometricDet(n int, alpha *big.Rat) *big.Rat {
	one := rational.One()
	dim := n + 1
	oneMinusSq := rational.Sub(one, rational.Mul(alpha, alpha))
	detPrime := rational.Pow(oneMinusSq, dim-1)
	onePlus := rational.Add(one, alpha)
	scale := rational.Mul(rational.Mul(onePlus, onePlus),
		rational.Pow(rational.Div(onePlus, rational.Sub(one, alpha)), dim-2))
	return rational.Div(detPrime, scale)
}

// --- baselines ------------------------------------------------------------

// Uniform returns the mechanism that ignores its input and outputs a
// uniform element of {0..n}. It is α-DP for every α (including α=1)
// but has no utility; used as a privacy-extreme baseline.
func Uniform(n int) (*Mechanism, error) {
	if n < 1 {
		return nil, fmt.Errorf("mechanism: n must be ≥ 1, got %d", n)
	}
	p := rational.New(1, int64(n+1))
	m := matrix.New(n+1, n+1)
	for i := 0; i <= n; i++ {
		for r := 0; r <= n; r++ {
			m.Set(i, r, p)
		}
	}
	return New(m)
}

// Identity returns the mechanism that releases the true result
// unperturbed. It is 0-DP only; the no-privacy baseline.
func Identity(n int) (*Mechanism, error) {
	if n < 1 {
		return nil, fmt.Errorf("mechanism: n must be ≥ 1, got %d", n)
	}
	return New(matrix.Identity(n + 1))
}

// RandomizedResponse returns the classical randomized-response
// mechanism on {0..n}: with probability p it reports the truth and
// with probability 1−p a uniform value. Its privacy level is
// BestAlpha-computable; used as a non-geometric DP baseline that
// Theorem 2 shows is not always derivable from the geometric
// mechanism.
func RandomizedResponse(n int, p *big.Rat) (*Mechanism, error) {
	if n < 1 {
		return nil, fmt.Errorf("mechanism: n must be ≥ 1, got %d", n)
	}
	if p.Sign() < 0 || p.Cmp(rational.One()) > 0 {
		return nil, fmt.Errorf("mechanism: p must be in [0,1], got %s", p.RatString())
	}
	base := rational.Div(rational.Sub(rational.One(), p), rational.Int(int64(n+1)))
	m := matrix.New(n+1, n+1)
	for i := 0; i <= n; i++ {
		for r := 0; r <= n; r++ {
			v := rational.Clone(base)
			if i == r {
				v.Add(v, p)
			}
			m.Set(i, r, v)
		}
	}
	return New(m)
}

// GeometricInverse returns G_{n,α}⁻¹ in closed form, avoiding O(dim³)
// Gauss–Jordan elimination. Writing G = G′·D, where G′ is the Toeplitz
// matrix α^{|i−j|} (a Kac–Murdock–Szegő matrix) and D the diagonal
// column scaling (1/(1+α) on the boundary columns, (1−α)/(1+α)
// inside), we have G⁻¹ = D⁻¹·G′⁻¹ with the classical tridiagonal
// inverse
//
//	G′⁻¹ = 1/(1−α²) · tridiag(−α, 1+α², −α),
//
// except that the two corner diagonal entries are 1 instead of 1+α².
// Construction is O(dim²) rational operations (dominated by writing
// the output); the matrix itself has only O(dim) nonzero entries.
// Every band coefficient and per-entry product runs on the
// rational.Hval ladder, so moderate α denominators stay in machine
// words.
func GeometricInverse(n int, alpha *big.Rat) (*matrix.Matrix, error) {
	if n < 1 {
		return nil, fmt.Errorf("mechanism: n must be ≥ 1, got %d", n)
	}
	if alpha.Sign() <= 0 || alpha.Cmp(rational.One()) >= 0 {
		return nil, fmt.Errorf("mechanism: geometric needs α ∈ (0,1), got %s", alpha.RatString())
	}
	var h rational.HybridStats
	var zero rational.Hval
	one := rational.HvalFromRat(rational.One())
	al := rational.HvalFromRat(alpha)
	alphaSq := h.Mul(al, al)
	oneMinusSq := h.SubH(one, alphaSq)
	diagCorner := h.Quo(one, oneMinusSq)                 // 1/(1−α²)
	diagInner := h.Quo(h.AddH(one, alphaSq), oneMinusSq) // (1+α²)/(1−α²)
	off := h.Quo(h.SubH(zero, al), oneMinusSq)           // −α/(1−α²)
	onePlus := h.AddH(one, al)                           // (1+α)
	dInvBoundary := onePlus                              // (1+α)
	dInvInterior := h.Quo(onePlus, h.SubH(one, al))      // (1+α)/(1−α)

	out := matrix.New(n+1, n+1)
	for i := 0; i <= n; i++ {
		// Row scaling from D⁻¹ (D scaled columns of G′, so D⁻¹ scales
		// rows of G′⁻¹).
		scale := dInvInterior
		if i == 0 || i == n {
			scale = dInvBoundary
		}
		diag := diagInner
		if i == 0 || i == n {
			diag = diagCorner
		}
		out.Set(i, i, h.Mul(scale, diag).Rat())
		if i > 0 {
			out.Set(i, i-1, h.Mul(scale, off).Rat())
		}
		if i < n {
			out.Set(i, i+1, h.Mul(scale, off).Rat())
		}
	}
	return out, nil
}
