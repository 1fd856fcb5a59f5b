// Package consumer implements the paper's information-consumer models:
// minimax (risk-averse) consumers with side information (Section 2.3),
// their optimal interaction with a deployed mechanism (the LP of
// Section 2.4.3), the optimal tailored differentially-private
// mechanism for a known consumer (the LP of Section 2.5), and — for
// the Section 2.7 comparison — Bayesian consumers in the model of
// Ghosh, Roughgarden and Sundararajan (STOC 2009).
//
// The two LPs meet in Theorem 1: the tailored optimum's loss equals
// the consumer's optimal interaction loss against the geometric
// mechanism G_{n,α}, so G·T* is an optimal tailored mechanism.
// GeometricOptimal names the inputs the theorem (or its Bayesian
// analogue) covers; for those the serving layer answers a tailored
// request with the interaction solve alone, and OptimalMechanism stays
// the library's §2.5 solver and the oracle that checks it.
package consumer

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// Consumer is a minimax information consumer: a monotone loss function
// plus side information S ⊆ {0..n} (the consumer knows the true result
// lies in S). A nil or empty Side means S = {0..n}.
type Consumer struct {
	Loss loss.Function
	Side []int
	Name string
}

// ErrEmptySide is returned when the side-information set has no
// element inside {0..n}.
var ErrEmptySide = errors.New("consumer: side information set is empty on {0..n}")

// side returns the sorted, deduplicated side-information set clipped
// to {0..n}, defaulting to the full set.
func (c *Consumer) side(n int) ([]int, error) {
	if len(c.Side) == 0 {
		out := make([]int, n+1)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	seen := make(map[int]bool, len(c.Side))
	var out []int
	for _, i := range c.Side {
		if i < 0 || i > n || seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	if len(out) == 0 {
		return nil, ErrEmptySide
	}
	sort.Ints(out)
	return out, nil
}

// Interval is a convenience constructor for contiguous side
// information {lo..hi}, the form side information takes in the paper's
// examples (population upper bounds, drug-sales lower bounds).
func Interval(lo, hi int) []int {
	if hi < lo {
		return nil
	}
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// ExpectedLoss returns Σ_r l(i,r)·x[i][r], the consumer's expected
// loss when the true result is i (Section 2.3).
func (c *Consumer) ExpectedLoss(m *mechanism.Mechanism, i int) *big.Rat {
	n := m.N()
	out := rational.Zero()
	tmp := rational.Zero()
	for r := 0; r <= n; r++ {
		tmp.Mul(c.Loss.Loss(i, r), m.At(i, r))
		out.Add(out, tmp)
	}
	return out
}

// MinimaxLoss returns Equation (1): max over i ∈ S of the expected
// loss — the risk-averse consumer's dis-utility for mechanism m.
func (c *Consumer) MinimaxLoss(m *mechanism.Mechanism) (*big.Rat, error) {
	s, err := c.side(m.N())
	if err != nil {
		return nil, err
	}
	var worst *big.Rat
	for _, i := range s {
		l := c.ExpectedLoss(m, i)
		if worst == nil || l.Cmp(worst) > 0 {
			worst = l
		}
	}
	return worst, nil
}

// Interaction is a consumer's optimal reaction to a deployed
// mechanism: the reinterpretation T of its outputs, the induced
// mechanism y·T, and the induced loss under that consumer's own
// objective. For minimax consumers this is the solution of the
// Section 2.4.3 LP and T is randomized; for Bayesian consumers the
// optimal reaction is a deterministic posterior remap and Remap
// records it (Remap is non-nil exactly in the deterministic case).
type Interaction struct {
	T       *matrix.Matrix
	Induced *mechanism.Mechanism
	Loss    *big.Rat
	Remap   []int
}

// OptimalInteraction solves the consumer's post-processing LP against
// the deployed mechanism y (Section 2.4.3). It is
// OptimalInteractionCtx with a background context.
func OptimalInteraction(c *Consumer, deployed *mechanism.Mechanism) (*Interaction, error) {
	return OptimalInteractionCtx(context.Background(), c, deployed)
}

// OptimalInteractionCtx solves the consumer's post-processing LP
// against the deployed mechanism y (Section 2.4.3):
//
//	minimize  max_{i∈S} Σ_{r'} x[i][r']·l(i,r')
//	where     x[i][r'] = Σ_r y[i][r]·T[r][r']
//	s.t.      each row of T is a probability distribution.
//
// The solve is the hot serving path behind Theorem 1 and can run for
// seconds at realistic n; ctx cancellation aborts it between simplex
// pivots and returns ctx.Err().
func OptimalInteractionCtx(ctx context.Context, c *Consumer, deployed *mechanism.Mechanism) (*Interaction, error) {
	return OptimalInteractionOpts(ctx, c, deployed, lp.SolveOpts{})
}

// OptimalInteractionOpts is OptimalInteractionCtx with explicit LP
// solver options: strategy selection (warm-start vs pure exact) and
// per-solve statistics for the serving layer's metrics.
func OptimalInteractionOpts(ctx context.Context, c *Consumer, deployed *mechanism.Mechanism, opts lp.SolveOpts) (*Interaction, error) {
	n := deployed.N()
	s, err := c.side(n)
	if err != nil {
		return nil, err
	}
	p, tv := interactionLP(c.Loss, s, deployed)
	sol, err := p.SolveWithOpts(ctx, opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("consumer: interaction LP status %v", sol.Status)
	}
	// sol.X is freshly allocated and owned here, so T takes its
	// values over without a copy.
	tm := matrix.FromFunc(n+1, n+1, func(r, rp int) *big.Rat { return sol.X[tv[r][rp]] })
	induced, err := deployed.PostProcess(tm)
	if err != nil {
		return nil, fmt.Errorf("consumer: induced mechanism invalid: %w", err)
	}
	return &Interaction{T: tm, Induced: induced, Loss: sol.Objective}, nil
}

// interactionLP builds the Section 2.4.3 LP of a consumer with loss l
// and side set s against the deployed mechanism y:
//
//	minimize  d
//	s.t.      −d + Σ_{r,r'} y[i][r]·l(i,r')·T[r][r'] ≤ 0   ∀ i ∈ S
//	          Σ_{r'} T[r][r'] = 1                           ∀ r
//	          T ≥ 0, d ≥ 0,
//
// and returns it with T's variables, tv[r][r']. The loss rows are
// written ≤ 0, the orientation lp stores, so the standard form keeps
// every coefficient as passed. Coefficients are shared values: one
// product per distinct (y entry, loss value) pair, where y entries are
// told apart by pointer (G_{n,α} has 2(n+1) distinct ones) and losses
// by value, and one 1 for every unit coefficient. A zero y entry or
// loss contributes no term.
func interactionLP(l loss.Function, s []int, y *mechanism.Mechanism) (*lp.Problem, [][]lp.Var) {
	n := y.N()
	p := lp.NewProblem(lp.Minimize)
	d := p.NewVariable("d") // worst-case loss bound; losses are ≥ 0
	tv := make([][]lp.Var, n+1)
	for r := 0; r <= n; r++ {
		tv[r] = make([]lp.Var, n+1)
		for rp := 0; rp <= n; rp++ {
			tv[r][rp] = p.NewVariable(fmt.Sprintf("T[%d][%d]", r, rp))
		}
	}
	one, zero := rational.One(), rational.Zero()
	p.SetObjective(lp.T(d, one))

	// losses holds the distinct nonzero loss values and lossIdx[r']
	// indexes row i's l(i,r') in it (−1 for a zero loss); yIdx numbers
	// the distinct y entries as met, and products caches y·l per pair
	// of indices.
	var losses []*big.Rat
	lossKey := make(map[string]int)
	lossIdx := make([]int, n+1)
	yIdx := make(map[*big.Rat]int)
	products := make(map[int]*big.Rat)
	negOne := rational.Int(-1)
	for _, i := range s {
		for rp := range lossIdx {
			lossIdx[rp] = -1
			v := l.Loss(i, rp)
			if v.Sign() == 0 {
				continue
			}
			vk := v.RatString()
			k, ok := lossKey[vk]
			if !ok {
				k = len(losses)
				lossKey[vk] = k
				losses = append(losses, v)
			}
			lossIdx[rp] = k
		}
		terms := []lp.Term{lp.T(d, negOne)}
		for r := 0; r <= n; r++ {
			yir := y.At(i, r)
			if yir.Sign() == 0 {
				continue
			}
			yk, ok := yIdx[yir]
			if !ok {
				yk = len(yIdx)
				yIdx[yir] = yk
			}
			for rp, lk := range lossIdx {
				if lk < 0 {
					continue
				}
				key := yk*(n+1)*(n+1) + lk // lk < |S|·(n+1) ≤ (n+1)²
				coef := products[key]
				if coef == nil {
					coef = rational.Mul(yir, losses[lk])
					products[key] = coef
				}
				terms = append(terms, lp.T(tv[r][rp], coef))
			}
		}
		p.AddConstraint(terms, lp.LE, zero)
	}
	// Row-stochasticity of T.
	for r := 0; r <= n; r++ {
		terms := make([]lp.Term, 0, n+1)
		for rp := 0; rp <= n; rp++ {
			terms = append(terms, lp.T(tv[r][rp], one))
		}
		p.AddConstraint(terms, lp.EQ, one)
	}
	return p, tv
}

// Tailored is an optimal α-differentially-private mechanism for a
// known consumer, with its loss: the Section 2.5 LP's canonical
// optimum (OptimalMechanism), or, where GeometricOptimal holds, the
// consumer's optimal interaction with G_{n,α}, which the serving
// engine returns.
type Tailored struct {
	Mechanism *mechanism.Mechanism
	Loss      *big.Rat
}

// OptimalMechanism solves the Section 2.5 LP over all oblivious α-DP
// mechanisms on {0..n}. It is OptimalMechanismCtx with a background
// context.
func OptimalMechanism(c *Consumer, n int, alpha *big.Rat) (*Tailored, error) {
	return OptimalMechanismCtx(context.Background(), c, n, alpha)
}

// OptimalMechanismCtx solves the Section 2.5 LP over all oblivious
// α-DP mechanisms on {0..n}:
//
//	minimize  d
//	s.t.      d − Σ_r x[i][r]·l(i,r) ≥ 0            ∀ i ∈ S
//	          x[i][r] − α·x[i+1][r] ≥ 0             ∀ i < n, r
//	          x[i+1][r] − α·x[i][r] ≥ 0             ∀ i < n, r
//	          Σ_r x[i][r] = 1                        ∀ i
//	          x ≥ 0.
//
// The LP has (n+1)²+1 variables; ctx cancellation aborts it between
// simplex pivots and returns ctx.Err().
func OptimalMechanismCtx(ctx context.Context, c *Consumer, n int, alpha *big.Rat) (*Tailored, error) {
	return OptimalMechanismOpts(ctx, c, n, alpha, lp.SolveOpts{})
}

// OptimalMechanismOpts is OptimalMechanismCtx with explicit LP solver
// options: strategy selection (warm-start vs pure exact) and
// per-solve statistics for the serving layer's metrics.
func OptimalMechanismOpts(ctx context.Context, c *Consumer, n int, alpha *big.Rat, opts lp.SolveOpts) (*Tailored, error) {
	if n < 1 {
		return nil, fmt.Errorf("consumer: n must be ≥ 1, got %d", n)
	}
	if alpha.Sign() < 0 || alpha.Cmp(rational.One()) > 0 {
		return nil, fmt.Errorf("consumer: α must be in [0,1], got %s", alpha.RatString())
	}
	s, err := c.side(n)
	if err != nil {
		return nil, err
	}
	p := lp.NewProblem(lp.Minimize)
	d := p.NewVariable("d")
	xv := make([][]lp.Var, n+1)
	for i := 0; i <= n; i++ {
		xv[i] = make([]lp.Var, n+1)
		for r := 0; r <= n; r++ {
			xv[i][r] = p.NewVariable(fmt.Sprintf("x[%d][%d]", i, r))
		}
	}
	p.SetObjective(lp.TInt(d, 1))
	for _, i := range s {
		terms := []lp.Term{lp.TInt(d, 1)}
		for r := 0; r <= n; r++ {
			coef := c.Loss.Loss(i, r)
			if coef.Sign() == 0 {
				continue
			}
			terms = append(terms, lp.T(xv[i][r], rational.Neg(coef)))
		}
		p.AddConstraint(terms, lp.GE, rational.Zero())
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
	sol, err := p.SolveWithOpts(ctx, opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("consumer: tailored-mechanism LP status %v", sol.Status)
	}
	xm := matrix.New(n+1, n+1)
	for i := 0; i <= n; i++ {
		for r := 0; r <= n; r++ {
			xm.Set(i, r, sol.Value(xv[i][r]))
		}
	}
	mech, err := mechanism.Adopt(xm)
	if err != nil {
		return nil, fmt.Errorf("consumer: LP solution not a mechanism: %w", err)
	}
	return &Tailored{Mechanism: mech, Loss: sol.Objective}, nil
}

// --- Bayesian consumers (Section 2.7 comparison) --------------------------

// Bayesian is an information consumer in the Ghosh et al. model: a
// prior over true results plus a loss function. Bayesian consumers
// minimize expected (prior-weighted) loss instead of worst-case loss.
type Bayesian struct {
	Loss  loss.Function
	Prior []*big.Rat // length n+1, non-negative, sums to 1
	Name  string
}

// ValidatePrior checks the prior is a distribution on {0..n}.
func (b *Bayesian) ValidatePrior(n int) error {
	if len(b.Prior) != n+1 {
		return fmt.Errorf("consumer: prior length %d, want %d", len(b.Prior), n+1)
	}
	sum := rational.Zero()
	for i, p := range b.Prior {
		if p.Sign() < 0 {
			return fmt.Errorf("consumer: prior[%d] = %s < 0", i, p.RatString())
		}
		sum.Add(sum, p)
	}
	if sum.Cmp(rational.One()) != 0 {
		return fmt.Errorf("consumer: prior sums to %s, want 1", sum.RatString())
	}
	return nil
}

// UniformPrior returns the uniform prior on {0..n}.
func UniformPrior(n int) []*big.Rat {
	out := make([]*big.Rat, n+1)
	for i := range out {
		out[i] = rational.New(1, int64(n+1))
	}
	return out
}

// ExpectedLoss returns the Bayesian consumer's prior-weighted expected
// loss Σ_i prior[i]·Σ_r x[i][r]·l(i,r) under mechanism m.
func (b *Bayesian) ExpectedLoss(m *mechanism.Mechanism) (*big.Rat, error) {
	n := m.N()
	if err := b.ValidatePrior(n); err != nil {
		return nil, err
	}
	out := rational.Zero()
	tmp := rational.Zero()
	for i := 0; i <= n; i++ {
		if b.Prior[i].Sign() == 0 {
			continue
		}
		inner := rational.Zero()
		for r := 0; r <= n; r++ {
			tmp.Mul(b.Loss.Loss(i, r), m.At(i, r))
			inner.Add(inner, tmp)
		}
		tmp.Mul(b.Prior[i], inner)
		out.Add(out, tmp)
	}
	return out, nil
}

// BayesianInteraction is the Bayesian consumer's optimal
// post-processing of a deployed mechanism. As Section 2.7 notes,
// Bayesian post-processing is deterministic: each received output r is
// remapped to the single r' minimizing posterior expected loss, so T
// is a 0/1 matrix. Remap[r] records that choice.
type BayesianInteraction struct {
	Remap   []int
	T       *matrix.Matrix
	Induced *mechanism.Mechanism
	Loss    *big.Rat
}

// OptimalBayesianInteraction computes the Bayes-optimal deterministic
// remap of the deployed mechanism's outputs. It is
// OptimalBayesianInteractionCtx with a background context.
func OptimalBayesianInteraction(b *Bayesian, deployed *mechanism.Mechanism) (*BayesianInteraction, error) {
	return OptimalBayesianInteractionCtx(context.Background(), b, deployed)
}

// OptimalBayesianInteractionCtx computes the Bayes-optimal
// deterministic remap of the deployed mechanism's outputs: for each
// output r,
//
//	remap(r) = argmin_{r'} Σ_i prior[i]·y[i][r]·l(i,r')
//
// (posterior expected loss; ties broken toward the smallest r').
// The scan is O(n²) rational work per output; ctx cancellation aborts
// it between outputs and returns ctx.Err().
func OptimalBayesianInteractionCtx(ctx context.Context, b *Bayesian, deployed *mechanism.Mechanism) (*BayesianInteraction, error) {
	return OptimalBayesianInteractionOpts(ctx, b, deployed, lp.SolveOpts{})
}

// OptimalBayesianInteractionOpts is OptimalBayesianInteractionCtx with
// explicit LP solver options, accepted for uniformity with the minimax
// API (consumer.Model threads one option set through every optimum).
// The Bayesian remap is an argmin scan rather than an LP, so the
// options are ignored.
func OptimalBayesianInteractionOpts(ctx context.Context, b *Bayesian, deployed *mechanism.Mechanism, _ lp.SolveOpts) (*BayesianInteraction, error) {
	n := deployed.N()
	if err := b.ValidatePrior(n); err != nil {
		return nil, err
	}
	// The loss table is built once; per output r, the posterior
	// weights w[i] = prior[i]·y[i][r] are built once for every r′, so
	// the scan costs one Mul and one Add per nonzero term.
	lt := make([][]*big.Rat, n+1)
	for i := range lt {
		lt[i] = make([]*big.Rat, n+1)
		for rp := range lt[i] {
			lt[i][rp] = b.Loss.Loss(i, rp)
		}
	}
	remap := make([]int, n+1)
	w := make([]big.Rat, n+1)
	val, bestVal, tmp := new(big.Rat), new(big.Rat), new(big.Rat)
	for r := 0; r <= n; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range w {
			w[i].Mul(b.Prior[i], deployed.At(i, r))
		}
		best := -1
		for rp := 0; rp <= n; rp++ {
			val.SetInt64(0)
			for i := range w {
				if w[i].Sign() != 0 && lt[i][rp].Sign() != 0 {
					tmp.Mul(&w[i], lt[i][rp])
					val.Add(val, tmp)
				}
			}
			if best < 0 || val.Cmp(bestVal) < 0 {
				val, bestVal, best = bestVal, val, rp
			}
		}
		remap[r] = best
	}
	tm := matrix.New(n+1, n+1)
	for r := 0; r <= n; r++ {
		tm.Set(r, remap[r], rational.One())
	}
	induced, err := deployed.PostProcess(tm)
	if err != nil {
		return nil, err
	}
	l, err := b.ExpectedLoss(induced)
	if err != nil {
		return nil, err
	}
	return &BayesianInteraction{Remap: remap, T: tm, Induced: induced, Loss: l}, nil
}

// OptimalBayesianMechanism solves the Ghosh-et-al. analogue of the
// Section 2.5 LP: minimize prior-weighted expected loss over all
// oblivious α-DP mechanisms. It is OptimalBayesianMechanismCtx with a
// background context.
func OptimalBayesianMechanism(b *Bayesian, n int, alpha *big.Rat) (*Tailored, error) {
	return OptimalBayesianMechanismCtx(context.Background(), b, n, alpha)
}

// OptimalBayesianMechanismCtx solves the Ghosh-et-al. analogue of the
// Section 2.5 LP over all oblivious α-DP mechanisms on {0..n}:
//
//	minimize  Σ_i prior[i]·Σ_r x[i][r]·l(i,r)
//	s.t.      x[i][r] − α·x[i+1][r] ≥ 0             ∀ i < n, r
//	          x[i+1][r] − α·x[i][r] ≥ 0             ∀ i < n, r
//	          Σ_r x[i][r] = 1                        ∀ i
//	          x ≥ 0.
//
// The LP is the same size as the minimax tailored LP (minus the
// epigraph variable); ctx cancellation aborts it between simplex
// pivots and returns ctx.Err().
func OptimalBayesianMechanismCtx(ctx context.Context, b *Bayesian, n int, alpha *big.Rat) (*Tailored, error) {
	return OptimalBayesianMechanismOpts(ctx, b, n, alpha, lp.SolveOpts{})
}

// OptimalBayesianMechanismOpts is OptimalBayesianMechanismCtx with
// explicit LP solver options: strategy selection (warm-start vs pure
// exact) and per-solve statistics for the serving layer's metrics.
func OptimalBayesianMechanismOpts(ctx context.Context, b *Bayesian, n int, alpha *big.Rat, opts lp.SolveOpts) (*Tailored, error) {
	if n < 1 {
		return nil, fmt.Errorf("consumer: n must be ≥ 1, got %d", n)
	}
	if alpha.Sign() < 0 || alpha.Cmp(rational.One()) > 0 {
		return nil, fmt.Errorf("consumer: α must be in [0,1], got %s", alpha.RatString())
	}
	if err := b.ValidatePrior(n); err != nil {
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
	var obj []lp.Term
	for i := 0; i <= n; i++ {
		for r := 0; r <= n; r++ {
			coef := rational.Mul(b.Prior[i], b.Loss.Loss(i, r))
			if coef.Sign() != 0 {
				obj = append(obj, lp.T(xv[i][r], coef))
			}
		}
	}
	p.SetObjective(obj...)
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
	sol, err := p.SolveWithOpts(ctx, opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("consumer: Bayesian LP status %v", sol.Status)
	}
	xm := matrix.New(n+1, n+1)
	for i := 0; i <= n; i++ {
		for r := 0; r <= n; r++ {
			xm.Set(i, r, sol.Value(xv[i][r]))
		}
	}
	mech, err := mechanism.Adopt(xm)
	if err != nil {
		return nil, err
	}
	return &Tailored{Mechanism: mech, Loss: sol.Objective}, nil
}
