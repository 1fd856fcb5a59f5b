package consumer

import (
	"fmt"
	"math/big"

	"minimaxdp/internal/lp"
	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// This file implements the structural check of the paper's Lemma 5:
// there always exists an optimal mechanism in which every pair of
// adjacent rows is "maximally squeezed" by the privacy constraints —
// a prefix of columns has the downward constraint tight
// (α·x[i][j] = x[i+1][j]), a suffix has the upward constraint tight
// (x[i][j] = α·x[i+1][j]), and at most two middle columns are slack.

// RowPairStructure describes how one adjacent row pair (i, i+1)
// satisfies Lemma 5.
type RowPairStructure struct {
	I  int // the pair is rows (I, I+1)
	C1 int // last column of the tight-prefix (−1 if empty)
	C2 int // first column of the tight-suffix (n+1 if empty)
}

// Slack returns the number of interior columns that are tight in
// neither direction (Lemma 5 allows at most one: c2 ∈ {c1+1, c1+2}).
func (s RowPairStructure) Slack() int { return s.C2 - s.C1 - 1 }

// CheckLemma5 verifies that the mechanism has the Lemma 5 structure:
// for every adjacent row pair there exist column indices c1 < c2 with
//
//	α·x[i][j] = x[i+1][j]  for all j ≤ c1,
//	x[i][j] = α·x[i+1][j]  for all j ≥ c2,
//	c2 − c1 ∈ {1, 2}.
//
// It returns the per-pair structure on success, or a descriptive error
// on the first pair that violates the pattern. The geometric mechanism
// satisfies it with zero slack (c2 = c1+1), and LP vertices produced
// by OptimalMechanism satisfy it with slack ≤ 1 — this checker is how
// the test suite validates Lemma 5 computationally.
func CheckLemma5(m *mechanism.Mechanism, alpha *big.Rat) ([]RowPairStructure, error) {
	n := m.N()
	out := make([]RowPairStructure, 0, n)
	for i := 0; i < n; i++ {
		// Longest prefix with α·x[i][j] == x[i+1][j].
		c1 := -1
		for j := 0; j <= n; j++ {
			if rational.Mul(alpha, m.Prob(i, j)).Cmp(m.Prob(i+1, j)) != 0 {
				break
			}
			c1 = j
		}
		// Longest suffix with x[i][j] == α·x[i+1][j].
		c2 := n + 1
		for j := n; j >= 0; j-- {
			if m.Prob(i, j).Cmp(rational.Mul(alpha, m.Prob(i+1, j))) != 0 {
				break
			}
			c2 = j
		}
		s := RowPairStructure{I: i, C1: c1, C2: c2}
		// Negative slack means prefix and suffix overlap (possible only
		// through shared zero entries); any c1, c2 inside the overlap
		// then witness the lemma, so only slack > 1 is a violation.
		if s.Slack() > 1 {
			return nil, fmt.Errorf("consumer: Lemma 5 structure fails at rows (%d,%d): prefix ends %d, suffix starts %d (%d slack columns)",
				i, i+1, c1, c2, s.Slack())
		}
		out = append(out, s)
	}
	return out, nil
}

// OptimalMechanismRefined implements the tie-breaking used in the
// proof of Lemma 5: among all mechanisms minimizing the consumer's
// minimax loss L, it selects one that additionally minimizes the
// secondary objective L′(x) = Σ_i Σ_r x[i][r]·|i−r| (lexicographic
// (L, L′) optimization, realized as two LP solves). The paper proves
// every such lexicographic optimum has the Lemma 5 adjacent-row
// structure; CheckLemma5 verifies it computationally.
func OptimalMechanismRefined(c *Consumer, n int, alpha *big.Rat) (*Tailored, error) {
	first, err := OptimalMechanism(c, n, alpha)
	if err != nil {
		return nil, err
	}
	s, err := c.side(n)
	if err != nil {
		return nil, err
	}
	p := lp.NewProblem(lp.Minimize)
	xv := make([][]lp.Var, n+1)
	for i := 0; i <= n; i++ {
		xv[i] = make([]lp.Var, n+1)
		for r := 0; r <= n; r++ {
			xv[i][r] = p.NewVariable(fmt.Sprintf("x[%d][%d]", i, r))
		}
	}
	// Secondary objective L′ over all rows.
	var obj []lp.Term
	for i := 0; i <= n; i++ {
		for r := 0; r <= n; r++ {
			d := int64(i - r)
			if d < 0 {
				d = -d
			}
			if d != 0 {
				obj = append(obj, lp.T(xv[i][r], rational.Int(d)))
			}
		}
	}
	p.SetObjective(obj...)
	// Primary optimality pinned: per-row loss ≤ L* for i ∈ S.
	for _, i := range s {
		var terms []lp.Term
		for r := 0; r <= n; r++ {
			coef := c.Loss.Loss(i, r)
			if coef.Sign() != 0 {
				terms = append(terms, lp.T(xv[i][r], coef))
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddConstraint(terms, lp.LE, first.Loss)
	}
	negAlpha := rational.Neg(alpha)
	for i := 0; i < n; i++ {
		for r := 0; r <= n; r++ {
			p.AddConstraint([]lp.Term{lp.TInt(xv[i][r], 1), lp.T(xv[i+1][r], negAlpha)}, lp.GE, rational.Zero())
			p.AddConstraint([]lp.Term{lp.TInt(xv[i+1][r], 1), lp.T(xv[i][r], negAlpha)}, lp.GE, rational.Zero())
		}
	}
	for i := 0; i <= n; i++ {
		terms := make([]lp.Term, 0, n+1)
		for r := 0; r <= n; r++ {
			terms = append(terms, lp.TInt(xv[i][r], 1))
		}
		p.AddConstraint(terms, lp.EQ, rational.One())
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("consumer: refinement LP status %v", sol.Status)
	}
	xm := matrix.New(n+1, n+1)
	for i := 0; i <= n; i++ {
		for r := 0; r <= n; r++ {
			xm.Set(i, r, sol.Value(xv[i][r]))
		}
	}
	mech, err := mechanism.Adopt(xm)
	if err != nil {
		return nil, fmt.Errorf("consumer: refined LP solution not a mechanism: %w", err)
	}
	return &Tailored{Mechanism: mech, Loss: first.Loss}, nil
}

// OptimalDeterministicInteraction finds, by exhaustive enumeration,
// the best DETERMINISTIC reinterpretation of the deployed mechanism's
// outputs for a minimax consumer — the restriction Section 2.7
// contrasts with: Bayesian consumers lose nothing by determinism,
// minimax consumers generally do. The search space has (n+1)^(n+1)
// maps, so the domain is limited to n ≤ 6; use OptimalInteraction for
// the unrestricted (randomized) optimum.
func OptimalDeterministicInteraction(c *Consumer, deployed *mechanism.Mechanism) (*Interaction, error) {
	n := deployed.N()
	if n > 6 {
		return nil, fmt.Errorf("consumer: deterministic enumeration limited to n ≤ 6, got %d", n)
	}
	s, err := c.side(n)
	if err != nil {
		return nil, err
	}
	// Precompute loss table and deployed rows to keep the inner loop
	// cheap.
	lossTab := make([][]*big.Rat, n+1)
	for i := 0; i <= n; i++ {
		lossTab[i] = make([]*big.Rat, n+1)
		for r := 0; r <= n; r++ {
			lossTab[i][r] = c.Loss.Loss(i, r)
		}
	}
	remap := make([]int, n+1)
	best := make([]int, n+1)
	var bestLoss *big.Rat
	tmp := rational.Zero()
	for {
		// Evaluate minimax loss of this remap.
		var worst *big.Rat
		for _, i := range s {
			rowLoss := rational.Zero()
			for r := 0; r <= n; r++ {
				p := deployed.Prob(i, r)
				if p.Sign() == 0 {
					continue
				}
				tmp.Mul(p, lossTab[i][remap[r]])
				rowLoss.Add(rowLoss, tmp)
			}
			if worst == nil || rowLoss.Cmp(worst) > 0 {
				worst = rowLoss
			}
		}
		if bestLoss == nil || worst.Cmp(bestLoss) < 0 {
			bestLoss = worst
			copy(best, remap)
		}
		// Next remap in mixed-radix order.
		pos := 0
		for pos <= n {
			remap[pos]++
			if remap[pos] <= n {
				break
			}
			remap[pos] = 0
			pos++
		}
		if pos > n {
			break
		}
	}
	tm := matrix.New(n+1, n+1)
	for r := 0; r <= n; r++ {
		tm.Set(r, best[r], rational.One())
	}
	induced, err := deployed.PostProcess(tm)
	if err != nil {
		return nil, err
	}
	return &Interaction{T: tm, Induced: induced, Loss: bestLoss}, nil
}
