// Package release implements Section 4.1 of the paper: simultaneous
// release of one count-query result at multiple privacy levels.
//
// Algorithm 1 draws the least-private result r₁ from G_{n,α₁} and then
// produces each more-private result by pushing the previous one
// through the Lemma 3 transition matrix T_{αᵢ,αᵢ₊₁} (so the marginal
// law of rᵢ is exactly G_{n,αᵢ}). Because every rᵢ with i > 1 is a
// randomized function of r₁ alone, any coalition of consumers learns
// no more about the database than the member with the weakest privacy
// level (Lemma 4) — the release is collusion-resistant.
//
// The package also implements the naive baseline the paper warns
// about — independent re-perturbation at every level — together with
// the averaging attack that defeats it.
package release

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/derive"
	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// Ladder is a validated privacy ladder on the domain {0..n}: levels
// α₁ < … < α_k strictly inside (0,1), least private first. It is the
// value that identifies a release plan, so it is built once per
// principal and read everywhere after: the levels are cloned, each is
// rendered once, and the plan's cache key is fixed. Immutable after
// NewLadder and safe to share.
type Ladder struct {
	n      int
	alphas []*big.Rat
	strs   []string // strs[i] = alphas[i].RatString()
	key    string
}

// ErrBadLevels is returned when the privacy levels are not strictly
// increasing within (0,1).
var ErrBadLevels = errors.New("release: privacy levels must be strictly increasing within (0,1)")

// CheckAlpha is the one rule for a single privacy level: α is
// non-nil and lies strictly inside (0,1), where Theorem 1's
// hypotheses hold. It runs on every tailored and compare request, so
// it compares numerator with denominator (positive, so a < 1 iff
// num < den) instead of allocating a 1 and cross-multiplying.
func CheckAlpha(a *big.Rat) error {
	if a == nil {
		return errors.New("privacy level is nil")
	}
	if a.Sign() <= 0 || a.Num().Cmp(a.Denom()) >= 0 {
		return fmt.Errorf("privacy level %s is not in (0,1)", a.RatString())
	}
	return nil
}

// CheckLevels is the one ladder rule: a non-empty list of levels,
// each passing CheckAlpha, strictly increasing. Failures wrap
// ErrBadLevels (an empty list too).
func CheckLevels(alphas []*big.Rat) error {
	if len(alphas) == 0 {
		return fmt.Errorf("%w: at least one privacy level required", ErrBadLevels)
	}
	for i, a := range alphas {
		if err := CheckAlpha(a); err != nil {
			return fmt.Errorf("%w: level %d: %v", ErrBadLevels, i+1, err)
		}
		if i > 0 && a.Cmp(alphas[i-1]) <= 0 {
			return fmt.Errorf("%w: level %d (%s) ≤ level %d (%s)",
				ErrBadLevels, i+1, a.RatString(), i, alphas[i-1].RatString())
		}
	}
	return nil
}

// NewLadder checks n ≥ 1 and the levels (CheckLevels) and builds the
// ladder. The caller's rationals are cloned.
func NewLadder(n int, alphas []*big.Rat) (*Ladder, error) {
	if n < 1 {
		return nil, fmt.Errorf("release: n must be ≥ 1, got %d", n)
	}
	if err := CheckLevels(alphas); err != nil {
		return nil, err
	}
	l := &Ladder{n: n, alphas: make([]*big.Rat, len(alphas)), strs: make([]string, len(alphas))}
	for i, a := range alphas {
		l.alphas[i] = rational.Clone(a)
		l.strs[i] = a.RatString()
	}
	// big.Rat keeps lowest terms, so equal ladders render (and key)
	// identically.
	l.key = fmt.Sprintf("n=%d|a=%s", n, strings.Join(l.strs, ","))
	return l, nil
}

// N returns the domain bound.
func (l *Ladder) N() int { return l.n }

// Levels returns the number of privacy levels.
func (l *Ladder) Levels() int { return len(l.alphas) }

// Key returns the plan key "n=N|a=α₁,…,α_k", each α in lowest terms.
func (l *Ladder) Key() string { return l.key }

// Alpha returns a copy of the privacy parameter of a 1-based level.
func (l *Ladder) Alpha(level int) (*big.Rat, error) {
	if level < 1 || level > len(l.alphas) {
		return nil, fmt.Errorf("release: level %d out of range 1..%d", level, len(l.alphas))
	}
	return rational.Clone(l.alphas[level-1]), nil
}

// AlphaString returns the rendered α of a 1-based level, or "" out of
// range. It allocates nothing.
func (l *Ladder) AlphaString(level int) string {
	if level < 1 || level > len(l.strs) {
		return ""
	}
	return l.strs[level-1]
}

// Strings returns a copy of the rendered levels, least private first.
func (l *Ladder) Strings() []string { return append([]string(nil), l.strs...) }

// Alphas returns a deep copy of the levels.
func (l *Ladder) Alphas() []*big.Rat {
	out := make([]*big.Rat, len(l.alphas))
	for i, a := range l.alphas {
		out[i] = rational.Clone(a)
	}
	return out
}

// Plan is a prepared multi-level release: the geometric mechanism at
// the least-private level plus the chain of Lemma 3 transitions.
// Build once with NewPlan (or BuildPlan), then call Release per query
// result.
type Plan struct {
	ladder      *Ladder
	first       *mechanism.Mechanism
	transitions []*mechanism.Mechanism // transitions[i]: level i → level i+1
	marginals   []*mechanism.Mechanism // G_{n,αᵢ} for each level
}

// NewPlan validates the levels α₁ < … < α_k (all in (0,1)) and
// precomputes the release chain of Algorithm 1. It is BuildPlan over
// NewLadder(n, alphas).
func NewPlan(n int, alphas []*big.Rat) (*Plan, error) {
	l, err := NewLadder(n, alphas)
	if err != nil {
		return nil, err
	}
	return BuildPlan(l)
}

// BuildPlan precomputes the release chain of Algorithm 1 for a
// validated ladder: the marginal G_{n,αᵢ} of every level and one
// exact Lemma 3 transition per adjacent pair. Each is built once from
// its O(n) distinct entries and checked row-stochastic once.
func BuildPlan(l *Ladder) (*Plan, error) {
	n, alphas := l.n, l.alphas
	p := &Plan{ladder: l}
	for i, a := range alphas {
		g, err := mechanism.Geometric(n, a)
		if err != nil {
			return nil, err
		}
		p.marginals = append(p.marginals, g)
		if i == 0 {
			continue
		}
		tr, err := derive.TransitionMechanism(n, alphas[i-1], a)
		if err != nil {
			return nil, fmt.Errorf("release: building T_{α%d,α%d}: %w", i, i+1, err)
		}
		p.transitions = append(p.transitions, tr)
	}
	p.first = p.marginals[0]
	return p, nil
}

// Ladder returns the plan's validated ladder (shared, immutable).
func (p *Plan) Ladder() *Ladder { return p.ladder }

// Levels returns the number of privacy levels.
func (p *Plan) Levels() int { return p.ladder.Levels() }

// N returns the database size.
func (p *Plan) N() int { return p.ladder.n }

// Alpha returns the privacy parameter of level (1-based, matching the
// paper's α₁ … α_k).
func (p *Plan) Alpha(level int) (*big.Rat, error) { return p.ladder.Alpha(level) }

// Marginal returns the exact marginal mechanism at a level — always
// the geometric mechanism G_{n,αᵢ} (the paper's M_i).
func (p *Plan) Marginal(level int) (*mechanism.Mechanism, error) {
	if level < 1 || level > len(p.marginals) {
		return nil, fmt.Errorf("release: level %d out of range 1..%d", level, len(p.marginals))
	}
	return p.marginals[level-1], nil
}

// Transition returns the Lemma 3 stochastic matrix mapping level i
// results to level i+1 results (1 ≤ i < k).
func (p *Plan) Transition(level int) (*matrix.Matrix, error) {
	if level < 1 || level > len(p.transitions) {
		return nil, fmt.Errorf("release: transition %d out of range 1..%d", level, len(p.transitions))
	}
	return p.transitions[level-1].Matrix(), nil
}

// Release runs Algorithm 1: it returns one result per privacy level,
// r[0] for the least-private consumer (α₁) through r[k−1] for the
// most-private (α_k). Successive results are correlated by
// construction: r[i+1] is sampled from the T_{αᵢ,αᵢ₊₁} row of r[i].
func (p *Plan) Release(trueResult int, rng *rand.Rand) ([]int, error) {
	if trueResult < 0 || trueResult > p.ladder.n {
		return nil, fmt.Errorf("release: true result %d out of range [0,%d]", trueResult, p.ladder.n)
	}
	out := make([]int, p.Levels())
	out[0] = p.first.Sample(trueResult, rng)
	for i, tr := range p.transitions {
		out[i+1] = tr.Sample(out[i], rng)
	}
	return out, nil
}

// NaiveRelease is the baseline the paper warns against: every level
// gets an independent draw of its geometric mechanism. Marginally each
// result has the right law, but the draws are independent, so
// colluding consumers can average away the noise.
func (p *Plan) NaiveRelease(trueResult int, rng *rand.Rand) ([]int, error) {
	if trueResult < 0 || trueResult > p.ladder.n {
		return nil, fmt.Errorf("release: true result %d out of range [0,%d]", trueResult, p.ladder.n)
	}
	out := make([]int, len(p.marginals))
	for i, g := range p.marginals {
		out[i] = g.Sample(trueResult, rng)
	}
	return out, nil
}

// CollusionAlpha implements Lemma 4's guarantee: a coalition holding
// the results of the given levels (1-based) is protected exactly at
// the weakest member's level, α_min(C).
func (p *Plan) CollusionAlpha(levels []int) (*big.Rat, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("release: empty coalition")
	}
	min := 0
	for _, l := range levels {
		if l < 1 || l > p.Levels() {
			return nil, fmt.Errorf("release: level %d out of range 1..%d", l, p.Levels())
		}
		if min == 0 || l < min {
			min = l
		}
	}
	return rational.Clone(p.ladder.alphas[min-1]), nil
}

// AttackResult summarizes one arm of the collusion experiment.
type AttackResult struct {
	Colluders    int
	MeanAbsError float64 // averaging estimator |estimate − truth|, Monte-Carlo mean
}

// AveragingAttack estimates the true result from a slice of released
// values by averaging and rounding (clamped to [0,n]) — the
// Chernoff-style noise-cancelling attack of Section 2.6.
func AveragingAttack(results []int, n int) int {
	if len(results) == 0 {
		return 0
	}
	s := 0
	for _, r := range results {
		s += r
	}
	est := int(math.Round(float64(s) / float64(len(results))))
	if est < 0 {
		est = 0
	}
	if est > n {
		est = n
	}
	return est
}

// CollusionExperiment runs the Monte-Carlo comparison behind
// experiment ECol: for coalition sizes 1..Levels it measures the mean
// absolute error of the averaging attack against (a) the naive
// independent release and (b) the Algorithm 1 cascade. Under the
// naive baseline the error shrinks as the coalition grows; under the
// cascade it does not improve on the single least-private result.
func (p *Plan) CollusionExperiment(truth, trials int, rng *rand.Rand) (naive, cascade []AttackResult, err error) {
	if truth < 0 || truth > p.ladder.n {
		return nil, nil, fmt.Errorf("release: truth %d out of range [0,%d]", truth, p.ladder.n)
	}
	if trials <= 0 {
		return nil, nil, fmt.Errorf("release: trials must be positive")
	}
	k := p.Levels()
	naiveErr := make([]float64, k)
	cascadeErr := make([]float64, k)
	for t := 0; t < trials; t++ {
		nv, err := p.NaiveRelease(truth, rng)
		if err != nil {
			return nil, nil, err
		}
		cv, err := p.Release(truth, rng)
		if err != nil {
			return nil, nil, err
		}
		for c := 1; c <= k; c++ {
			ne := AveragingAttack(nv[:c], p.ladder.n) - truth
			if ne < 0 {
				ne = -ne
			}
			naiveErr[c-1] += float64(ne)
			ce := AveragingAttack(cv[:c], p.ladder.n) - truth
			if ce < 0 {
				ce = -ce
			}
			cascadeErr[c-1] += float64(ce)
		}
	}
	for c := 1; c <= k; c++ {
		naive = append(naive, AttackResult{Colluders: c, MeanAbsError: naiveErr[c-1] / float64(trials)})
		cascade = append(cascade, AttackResult{Colluders: c, MeanAbsError: cascadeErr[c-1] / float64(trials)})
	}
	return naive, cascade, nil
}

// ConsumerView pairs a privacy level with the optimal post-processing
// a given consumer applies to that level's marginal mechanism, and the
// resulting minimax loss.
type ConsumerView struct {
	Level int
	Alpha *big.Rat
	// Interaction is the consumer's optimal randomized remap of the
	// level's geometric mechanism (Theorem 1: its loss equals the
	// tailored optimum at this level).
	Interaction *consumer.Interaction
}

// ViewsFor computes, for every level of the plan, the optimal
// interaction of consumer c with that level's marginal mechanism. The
// slice is ordered least-private first, and losses are non-decreasing
// in the level (more privacy can only cost utility).
func (p *Plan) ViewsFor(c *consumer.Consumer) ([]ConsumerView, error) {
	out := make([]ConsumerView, 0, p.Levels())
	for lvl := 1; lvl <= p.Levels(); lvl++ {
		m, err := p.Marginal(lvl)
		if err != nil {
			return nil, err
		}
		inter, err := consumer.OptimalInteraction(c, m)
		if err != nil {
			return nil, fmt.Errorf("release: level %d interaction: %w", lvl, err)
		}
		a, err := p.Alpha(lvl)
		if err != nil {
			return nil, err
		}
		out = append(out, ConsumerView{Level: lvl, Alpha: a, Interaction: inter})
	}
	return out, nil
}
