// The unified consumer-model abstraction. The paper studies two kinds
// of information consumer: the minimax (risk-averse) consumer of
// Section 2.3 and — for the Section 2.7 contrast — the Bayesian
// consumer of Ghosh, Roughgarden and Sundararajan. Both are "a way to
// score a mechanism, plus an optimal reaction to a deployed one", and
// the serving layer (engine compare artifacts, POST /v1/compare, the
// gap sweep) treats them uniformly through the Model interface:
// exact-rational loss evaluation, context-first LP-backed optima with
// lp.SolveOpts threading, and a canonical cache identity.
//
// Conventions shared by both implementations:
//
//   - EvalLoss scores a deployed mechanism as-is (no post-processing);
//   - OptimalInteractionCtx is the consumer's best reaction to a
//     deployed mechanism (randomized post-processing LP for minimax,
//     deterministic posterior remap for Bayesian — both returned as a
//     *Interaction, with Remap non-nil exactly when the reaction is
//     deterministic);
//   - OptimalMechanismCtx is the α-DP mechanism a mechanism designer
//     would tailor to this one consumer, the yardstick optimality
//     gaps are measured against;
//   - Key is the canonical cache identity on {0..n}, stable across
//     processes (the engine hashes it into disk-store addresses).

package consumer

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// Model is the unified consumer-model interface: anything that can
// score a mechanism exactly, react optimally to a deployed one, and
// name the tailored optimum it would be served by a mechanism
// designer who knew it. *Consumer (minimax) and *Bayesian implement
// it.
//
// All methods are exact-rational. The Ctx methods are context-first
// and thread lp.SolveOpts so the serving layer's warm-start strategy
// and per-solve statistics flow through uniformly; implementations
// whose optimum needs no LP (the Bayesian deterministic remap) accept
// and ignore the options.
type Model interface {
	// ModelName identifies the model family ("minimax", "bayesian")
	// for cache keys, API responses, and experiment tables.
	ModelName() string

	// Key returns the model's canonical cache identity on {0..n}:
	// equal keys iff the models are behaviorally identical on that
	// domain. It validates the model's parameters against n.
	Key(n int) (string, error)

	// EvalLoss scores the deployed mechanism as-is: worst-case
	// expected loss over the side set for minimax, prior-weighted
	// expected loss for Bayesian.
	EvalLoss(m *mechanism.Mechanism) (*big.Rat, error)

	// OptimalInteractionCtx computes the consumer's optimal reaction
	// to the deployed mechanism. Remap is non-nil exactly when the
	// optimal reaction is deterministic.
	OptimalInteractionCtx(ctx context.Context, deployed *mechanism.Mechanism, opts lp.SolveOpts) (*Interaction, error)

	// OptimalMechanismCtx computes the α-DP mechanism tailored to
	// this consumer on {0..n} — the optimality-gap yardstick.
	OptimalMechanismCtx(ctx context.Context, n int, alpha *big.Rat, opts lp.SolveOpts) (*Tailored, error)
}

// --- minimax implementation ----------------------------------------------

// ModelName implements Model: the paper's risk-averse consumer.
func (c *Consumer) ModelName() string { return "minimax" }

// Key implements Model. The identity is the loss function's name plus
// the sorted, deduplicated side-information set clipped to {0..n}
// (matching how the LP builders normalize side information); the
// display Name is deliberately excluded. This string is also the
// engine's historical cache identity for minimax consumers, so
// artifacts persisted before the Model unification keep their disk
// addresses.
func (c *Consumer) Key(n int) (string, error) {
	if c == nil || c.Loss == nil {
		return "", fmt.Errorf("consumer: consumer with a loss function required")
	}
	var b strings.Builder
	b.WriteString("loss=")
	b.WriteString(c.Loss.Name())
	b.WriteString("|side=")
	if len(c.Side) == 0 {
		b.WriteString("full")
		return b.String(), nil
	}
	side := make([]int, 0, len(c.Side))
	seen := make(map[int]bool, len(c.Side))
	for _, i := range c.Side {
		if i < 0 || i > n || seen[i] {
			continue
		}
		seen[i] = true
		side = append(side, i)
	}
	if len(side) == 0 {
		return "", ErrEmptySide
	}
	sort.Ints(side)
	for k, i := range side {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(i))
	}
	return b.String(), nil
}

// EvalLoss implements Model: Equation (1), the minimax loss.
func (c *Consumer) EvalLoss(m *mechanism.Mechanism) (*big.Rat, error) {
	return c.MinimaxLoss(m)
}

// OptimalInteractionCtx implements Model via the Section 2.4.3
// post-processing LP (OptimalInteractionOpts).
func (c *Consumer) OptimalInteractionCtx(ctx context.Context, deployed *mechanism.Mechanism, opts lp.SolveOpts) (*Interaction, error) {
	return OptimalInteractionOpts(ctx, c, deployed, opts)
}

// OptimalMechanismCtx implements Model via the Section 2.5 LP
// (OptimalMechanismOpts).
func (c *Consumer) OptimalMechanismCtx(ctx context.Context, n int, alpha *big.Rat, opts lp.SolveOpts) (*Tailored, error) {
	return OptimalMechanismOpts(ctx, c, n, alpha, opts)
}

// --- Bayesian implementation ---------------------------------------------

// ModelName implements Model: the Ghosh-et-al. expected-loss consumer.
func (b *Bayesian) ModelName() string { return "bayesian" }

// Key implements Model: the loss name plus the full prior in lowest
// terms. Validates the prior is a distribution on {0..n}.
func (b *Bayesian) Key(n int) (string, error) {
	if b == nil || b.Loss == nil {
		return "", fmt.Errorf("consumer: Bayesian consumer with a loss function required")
	}
	if err := b.ValidatePrior(n); err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("bayes|loss=")
	sb.WriteString(b.Loss.Name())
	sb.WriteString("|prior=")
	for i, p := range b.Prior {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.RatString())
	}
	return sb.String(), nil
}

// EvalLoss implements Model: prior-weighted expected loss.
func (b *Bayesian) EvalLoss(m *mechanism.Mechanism) (*big.Rat, error) {
	return b.ExpectedLoss(m)
}

// OptimalInteractionCtx implements Model: the Bayes-optimal
// deterministic remap, wrapped into the unified Interaction shape
// with Remap set. The remap is an argmin scan, not an LP, so opts is
// accepted for interface uniformity and ignored.
func (b *Bayesian) OptimalInteractionCtx(ctx context.Context, deployed *mechanism.Mechanism, opts lp.SolveOpts) (*Interaction, error) {
	bi, err := OptimalBayesianInteractionOpts(ctx, b, deployed, opts)
	if err != nil {
		return nil, err
	}
	return &Interaction{T: bi.T, Induced: bi.Induced, Loss: bi.Loss, Remap: bi.Remap}, nil
}

// OptimalMechanismCtx implements Model via the Ghosh-et-al. analogue
// of the Section 2.5 LP (OptimalBayesianMechanismOpts).
func (b *Bayesian) OptimalMechanismCtx(ctx context.Context, n int, alpha *big.Rat, opts lp.SolveOpts) (*Tailored, error) {
	return OptimalBayesianMechanismOpts(ctx, b, n, alpha, opts)
}

// GeometricOptimal reports whether m's optimal interaction with the
// geometric mechanism G_{n,α} is an optimal α-DP mechanism for m on
// {0..n}. That holds when α ∈ (0, 1), where G_{n,α} is defined, and
// m's loss meets the paper's Section 2.3 assumption (loss.Validate):
// Theorem 1 part 2 for a minimax consumer, the theorem of Ghosh,
// Roughgarden and Sundararajan for a Bayesian one. Every other input,
// and a Model of any other type, needs OptimalMechanismCtx's LP.
func GeometricOptimal(m Model, n int, alpha *big.Rat) bool {
	if alpha.Sign() <= 0 || alpha.Cmp(rational.One()) >= 0 {
		return false
	}
	var l loss.Function
	switch m := m.(type) {
	case *Consumer:
		l = m.Loss
	case *Bayesian:
		l = m.Loss
	default:
		return false
	}
	return loss.Validate(l, n) == nil
}

// Compile-time interface conformance pins: both consumer families
// stay behind the one Model abstraction.
var (
	_ Model = (*Consumer)(nil)
	_ Model = (*Bayesian)(nil)
)
