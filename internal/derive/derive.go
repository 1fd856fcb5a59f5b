// Package derive implements Section 3 of the paper: the complete
// characterization of mechanisms derivable from the geometric
// mechanism, the factorization T = G⁻¹·M, the Cramer's-rule
// certificates of Lemma 2, the privacy-level transition matrices
// T_{α,β} of Lemma 3, and the Appendix B counterexample.
//
// "M is derivable from G" (Definition 3) means there is a
// row-stochastic reinterpretation matrix T with M = G·T — i.e. a
// consumer receiving G's outputs can simulate M by randomized
// post-processing. Theorem 2 proves M (an oblivious α-DP mechanism) is
// derivable from G_{n,α} iff every three consecutive entries
// x1,x2,x3 of every column of M satisfy (1+α²)·x2 − α·(x1+x3) ≥ 0.
package derive

import (
	"errors"
	"fmt"
	"math/big"

	"minimaxdp/internal/lp"
	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// ErrNotDerivable is wrapped by Factor when M cannot be derived from
// the geometric mechanism.
var ErrNotDerivable = errors.New("derive: mechanism not derivable from the geometric mechanism")

// ConditionViolation pinpoints the first failing triple of Theorem 2's
// characterization.
type ConditionViolation struct {
	Col   int      // column j of M
	Row   int      // middle row i of the triple (i−1, i, i+1)
	Value *big.Rat // (1+α²)x_{i,j} − α(x_{i−1,j}+x_{i+1,j}) < 0
}

func (v *ConditionViolation) Error() string {
	return fmt.Sprintf("derive: Theorem 2 condition fails at column %d, rows %d..%d: (1+α²)x2−α(x1+x3) = %s < 0",
		v.Col, v.Row-1, v.Row+1, v.Value.RatString())
}

// CheckCondition verifies the Theorem 2 characterization directly: for
// every column j and every interior row i, (1+α²)·x[i][j] −
// α·(x[i−1][j]+x[i+1][j]) ≥ 0. Returns nil if the condition holds and
// a *ConditionViolation otherwise.
func CheckCondition(m *mechanism.Mechanism, alpha *big.Rat) error {
	n := m.N()
	onePlusSq := rational.Add(rational.One(), rational.Mul(alpha, alpha))
	for j := 0; j <= n; j++ {
		for i := 1; i < n; i++ {
			mid := rational.Mul(onePlusSq, m.Prob(i, j))
			side := rational.Mul(alpha, rational.Add(m.Prob(i-1, j), m.Prob(i+1, j)))
			mid.Sub(mid, side)
			if mid.Sign() < 0 {
				return &ConditionViolation{Col: j, Row: i, Value: mid}
			}
		}
	}
	return nil
}

// Derivable reports whether m can be derived from G_{n,α} per
// Theorem 2's three-term condition.
func Derivable(m *mechanism.Mechanism, alpha *big.Rat) bool {
	return CheckCondition(m, alpha) == nil
}

// Factor computes the unique generalized-stochastic T with
// M = G_{n,α}·T, and verifies T is actually stochastic (all entries
// ≥ 0), i.e. implementable as a randomized post-processing. On
// success it returns T; when M is not derivable it returns an error
// wrapping ErrNotDerivable together with the offending entry.
func Factor(m *mechanism.Mechanism, alpha *big.Rat) (*matrix.Matrix, error) {
	n := m.N()
	// The closed-form inverse (tridiagonal, O(dim) nonzeros) makes the
	// whole factorization O(dim²) instead of the O(dim³) Gauss–Jordan
	// route; both agree exactly (see mechanism.GeometricInverse tests).
	gInv, err := mechanism.GeometricInverse(n, alpha)
	if err != nil {
		return nil, err
	}
	t, err := gInv.Mul(m.Matrix())
	if err != nil {
		return nil, err
	}
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			if t.At(i, j).Sign() < 0 {
				return nil, fmt.Errorf("%w: T[%d][%d] = %s < 0",
					ErrNotDerivable, i, j, t.At(i, j).RatString())
			}
		}
	}
	// T = G⁻¹M is a product of generalized stochastic matrices, hence
	// generalized stochastic (Poole 1995); with non-negativity it is
	// stochastic. Verify as a defence against construction bugs.
	if !t.IsStochastic() {
		return nil, fmt.Errorf("derive: internal error: factor is not stochastic")
	}
	return t, nil
}

// CramerCertificate returns, for column vector x of length n+1 and
// replacement position i (0-based), the determinant det G_{n,α}(i, x)
// from Lemma 2. Its sign decides whether the corresponding entry of
// T = G⁻¹·M is non-negative: t[i][j] = det G(i, m_j) / det G.
func CramerCertificate(n int, alpha *big.Rat, i int, x []*big.Rat) (*big.Rat, error) {
	if len(x) != n+1 {
		return nil, fmt.Errorf("derive: column length %d, want %d", len(x), n+1)
	}
	g, err := mechanism.Geometric(n, alpha)
	if err != nil {
		return nil, err
	}
	replaced, err := g.Matrix().ReplaceCol(i, x)
	if err != nil {
		return nil, err
	}
	return replaced.Det()
}

// Lemma2Sign evaluates the closed-form sign predicates of Lemma 2 for
// the replacement determinant, without computing any determinant:
//
//	i = 0:   det > 0 iff x[0] > α·x[1]
//	i = n:   det > 0 iff x[n] > α·x[n−1]
//	else:    det ≥ 0 iff (1+α²)·x[i] − α·(x[i−1]+x[i+1]) ≥ 0
//
// It returns the sign in {−1, 0, +1} of the deciding expression.
func Lemma2Sign(n int, alpha *big.Rat, i int, x []*big.Rat) (int, error) {
	if len(x) != n+1 {
		return 0, fmt.Errorf("derive: column length %d, want %d", len(x), n+1)
	}
	if i < 0 || i > n {
		return 0, fmt.Errorf("derive: position %d out of range", i)
	}
	switch {
	case i == 0:
		d := rational.Sub(x[0], rational.Mul(alpha, x[1]))
		return d.Sign(), nil
	case i == n:
		d := rational.Sub(x[n], rational.Mul(alpha, x[n-1]))
		return d.Sign(), nil
	default:
		onePlusSq := rational.Add(rational.One(), rational.Mul(alpha, alpha))
		d := rational.Sub(rational.Mul(onePlusSq, x[i]),
			rational.Mul(alpha, rational.Add(x[i-1], x[i+1])))
		return d.Sign(), nil
	}
}

// Transition computes the Lemma 3 post-processing matrix T_{α,β} with
// G_{n,β} = G_{n,α}·T_{α,β} for privacy parameters α ≤ β (recall that
// larger α means *more* privacy, so T adds privacy). It returns an
// error if α > β, for which no stochastic transition exists. T is
// built from its structure (see transition) and checked non-negative
// and row-stochastic.
func Transition(n int, alpha, beta *big.Rat) (*matrix.Matrix, error) {
	t, err := transition(n, alpha, beta)
	if err != nil {
		return nil, err
	}
	// T = G_α⁻¹·G_β is generalized stochastic (Poole 1995) and, being
	// non-negative, stochastic. Verify as a defence against
	// construction bugs.
	if !t.IsStochastic() {
		return nil, fmt.Errorf("derive: internal error: T_{α,β} is not stochastic")
	}
	return t, nil
}

// TransitionMechanism is Transition as a mechanism, for a caller that
// samples from T's rows (release.BuildPlan). The mechanism takes the
// fresh matrix over (mechanism.Adopt), whose row-stochastic check is
// the one T gets.
func TransitionMechanism(n int, alpha, beta *big.Rat) (*mechanism.Mechanism, error) {
	t, err := transition(n, alpha, beta)
	if err != nil {
		return nil, err
	}
	return mechanism.Adopt(t)
}

// transition builds T_{α,β} = G_α⁻¹·G_β from O(n) exact operations
// and checks it non-negative. G_α⁻¹ is tridiagonal (see
// mechanism.GeometricInverse), so every entry of T is a sum of at most
// three products G_α⁻¹[i][k]·G_β[k][j], k ∈ {i−1, i, i+1}. In the
// interior rows (0 < i < n) the coefficients of G_α⁻¹ are the same,
// and in the interior columns (0 < j < n) G_β[k][j] depends only on
// k−j, so there T[i][j] depends only on i−j: that band has 2n−3
// distinct values. The boundary rows and columns hold the other
// 4n entries, each summed directly. The matrix shares one value per
// band diagonal (matrix.FromFunc).
func transition(n int, alpha, beta *big.Rat) (*matrix.Matrix, error) {
	if alpha.Cmp(beta) > 0 {
		return nil, fmt.Errorf("derive: no stochastic transition from α=%s to weaker-privacy β=%s",
			alpha.RatString(), beta.RatString())
	}
	gBeta, err := mechanism.NewGeometricEntries(n, beta)
	if err != nil {
		return nil, err
	}
	if alpha.Cmp(beta) == 0 {
		return matrix.Identity(n + 1), nil
	}
	if alpha.Sign() <= 0 {
		return nil, fmt.Errorf("derive: geometric needs α ∈ (0,1), got %s", alpha.RatString())
	}
	// The nonzero entries of G_α⁻¹ = D⁻¹·G′⁻¹: (1+α)·(1, −α)/(1−α²)
	// in the boundary rows, (1+α)/(1−α)·(−α, 1+α², −α)/(1−α²) in the
	// interior ones.
	one := rational.One()
	oneMinus := rational.Sub(one, alpha)
	edgeDiag := rational.Div(one, oneMinus)                                              // 1/(1−α)
	edgeOff := rational.Div(rational.Neg(alpha), oneMinus)                               // −α/(1−α)
	oneMinusSq := rational.Mul(oneMinus, oneMinus)                                       // (1−α)²
	innerDiag := rational.Div(rational.Add(one, rational.Mul(alpha, alpha)), oneMinusSq) // (1+α²)/(1−α)²
	innerOff := rational.Div(rational.Neg(alpha), oneMinusSq)                            // −α/(1−α)²
	inv := func(i, k int) *big.Rat {
		diag, off := innerDiag, innerOff
		if i == 0 || i == n {
			diag, off = edgeDiag, edgeOff
		}
		if k == i {
			return diag
		}
		return off
	}
	entry := func(i, j int) *big.Rat {
		sum := rational.Zero()
		for k := i - 1; k <= i+1; k++ {
			if k >= 0 && k <= n {
				sum.Add(sum, rational.Mul(inv(i, k), gBeta.At(k, j)))
			}
		}
		return sum
	}
	// band[δ+n] = T[i][j] for interior i, j with i−j = δ, computed at
	// the pair (1+δ, 1) or (1, 1−δ).
	band := make([]*big.Rat, 2*n+1)
	for delta := -(n - 2); delta <= n-2; delta++ {
		i, j := 1+delta, 1
		if delta < 0 {
			i, j = 1, 1-delta
		}
		band[delta+n] = entry(i, j)
	}
	// edge[0], edge[1]: rows 0 and n; edge[2], edge[3]: columns 0 and n.
	var edge [4][]*big.Rat
	for e := range edge {
		edge[e] = make([]*big.Rat, n+1)
	}
	for x := 0; x <= n; x++ {
		edge[0][x], edge[1][x] = entry(0, x), entry(n, x)
		edge[2][x], edge[3][x] = entry(x, 0), entry(x, n)
	}
	t := matrix.FromFunc(n+1, n+1, func(i, j int) *big.Rat {
		switch {
		case i == 0:
			return edge[0][j]
		case i == n:
			return edge[1][j]
		case j == 0:
			return edge[2][i]
		case j == n:
			return edge[3][i]
		}
		return band[i-j+n]
	})
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			if t.At(i, j).Sign() < 0 {
				return nil, fmt.Errorf("%w: T_{α,β}[%d][%d] = %s < 0",
					ErrNotDerivable, i, j, t.At(i, j).RatString())
			}
		}
	}
	return t, nil
}

// AppendixB returns the paper's Appendix B example: a mechanism that
// is ½-differentially private yet not derivable from G_{3,1/2}. It
// witnesses that Theorem 2's condition is strictly stronger than
// differential privacy.
func AppendixB() *mechanism.Mechanism {
	m, err := mechanism.FromStrings([][]string{
		{"1/9", "2/9", "4/9", "2/9"},
		{"2/9", "1/9", "2/9", "4/9"},
		{"4/9", "2/9", "1/9", "2/9"},
		{"13/18", "1/9", "1/18", "1/9"},
	})
	if err != nil {
		// The matrix is a fixed valid constant; failure is programmer error.
		panic(err)
	}
	return m
}

// DerivableFrom decides Definition 3 in full generality: can mechanism
// x be derived from deployed mechanism y by randomized post-processing
// — is there a row-stochastic T with x = y·T? Unlike Factor (which
// exploits the geometric mechanism's invertibility), this works for
// arbitrary deployed mechanisms, including singular ones, by solving
// the linear feasibility problem over T exactly. On success it returns
// a witnessing T.
func DerivableFrom(x, y *mechanism.Mechanism) (*matrix.Matrix, error) {
	if x.N() != y.N() {
		return nil, fmt.Errorf("derive: size mismatch: x on {0..%d}, y on {0..%d}", x.N(), y.N())
	}
	n := x.N()
	p := lp.NewProblem(lp.Minimize) // pure feasibility; zero objective
	tv := make([][]lp.Var, n+1)
	for r := 0; r <= n; r++ {
		tv[r] = make([]lp.Var, n+1)
		for rp := 0; rp <= n; rp++ {
			tv[r][rp] = p.NewVariable(fmt.Sprintf("T[%d][%d]", r, rp))
		}
	}
	// y·T = x, entrywise.
	for i := 0; i <= n; i++ {
		for rp := 0; rp <= n; rp++ {
			var terms []lp.Term
			for r := 0; r <= n; r++ {
				c := y.Prob(i, r)
				if c.Sign() != 0 {
					terms = append(terms, lp.T(tv[r][rp], c))
				}
			}
			if len(terms) == 0 {
				if x.Prob(i, rp).Sign() != 0 {
					return nil, fmt.Errorf("%w: y's row %d is zero but x[%d][%d] > 0",
						ErrNotDerivable, i, i, rp)
				}
				continue
			}
			p.AddConstraint(terms, lp.EQ, x.Prob(i, rp))
		}
	}
	// Rows of T are distributions.
	for r := 0; r <= n; r++ {
		terms := make([]lp.Term, 0, n+1)
		for rp := 0; rp <= n; rp++ {
			terms = append(terms, lp.TInt(tv[r][rp], 1))
		}
		p.AddConstraint(terms, lp.EQ, rational.One())
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("%w: no stochastic T with y·T = x", ErrNotDerivable)
	}
	t := matrix.New(n+1, n+1)
	for r := 0; r <= n; r++ {
		for rp := 0; rp <= n; rp++ {
			t.Set(r, rp, sol.Value(tv[r][rp]))
		}
	}
	return t, nil
}
