// The compare artifact class: the engine-cached optimality-gap
// scorecard behind POST /v1/compare and the experiments gap sweep.
// One compare artifact fixes (n, α, consumer model, baseline set) and
// answers, all in exact rationals: what does each baseline mechanism
// cost this consumer as deployed, what does it cost after the
// consumer's optimal post-processing, and how far is that from the
// α-DP mechanism tailored to this exact consumer? Theorem 1 part 2 is
// the headline row: the tailored optimum is the consumer's optimal
// interaction with G_{n,α}, which is the geometric row's interaction,
// so that row's Gap is zero by construction (cmd/experiments -mode=gap
// and the engine tests check it against the §2.5 LP).
//
// The class composes the existing artifact classes rather than
// re-solving: the tailored optimum comes from the tailored store (so a
// compare shares cache and disk entries with /v1/tailored), the other
// baselines' interactions from the interactions store, with their LP
// solves bounded by the same in-flight-solve semaphore, and the
// baseline mechanisms from the mechanisms store. A default minimax
// compare runs three LPs. Only the final assembled scorecard is
// cached — and persisted — under the compare class itself.

package engine

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
)

// CompareSpec names one compare artifact: the domain bound, the
// privacy level, the consumer model (minimax or Bayesian — anything
// implementing consumer.Model), and the baseline set to score. An
// empty baseline set means baseline.DefaultSet (geometric, staircase,
// laplace).
type CompareSpec struct {
	N         int
	Alpha     *big.Rat
	Model     consumer.Model
	Baselines []baseline.Spec
}

// compareKey keys the compare class: level parameters, the model's
// canonical identity, and the canonicalized baseline set.
func compareKey(n int, alpha *big.Rat, mk string, specs []baseline.Spec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = s.String()
	}
	return fmt.Sprintf("n=%d|a=%s|%s|vs=%s", n, ratKey(alpha), mk, strings.Join(parts, ","))
}

// Compare computes (once per key) the optimality-gap scorecard for
// spec. It is CompareCtx(context.Background(), ...).
func (e *Engine) Compare(spec CompareSpec) (*baseline.Comparison, error) {
	return e.CompareCtx(context.Background(), spec)
}

// CompareCtx is Compare under a context. The artifact composes the
// tailored optimum and one interaction per non-geometric baseline,
// each served through its own artifact class (cache, disk store, and
// solve semaphore included), so a compare against a warm engine costs
// no LP work at all and a saturated engine sheds the nested solves
// with ErrSaturated exactly like the individual routes. Every baseline
// builder needs α ∈ (0,1), so an α outside it is rejected before any
// solve (release.CheckAlpha), and a model outside Theorem 1's
// hypotheses fails on a miss (checkTheoremOne). The returned
// Comparison is shared between callers and must be treated as
// read-only.
func (e *Engine) CompareCtx(ctx context.Context, spec CompareSpec) (*baseline.Comparison, error) {
	if err := release.CheckAlpha(spec.Alpha); err != nil {
		return nil, fmt.Errorf("engine: compare: %w", err)
	}
	if spec.Model == nil {
		return nil, fmt.Errorf("engine: consumer model required")
	}
	mk, err := spec.Model.Key(spec.N)
	if err != nil {
		return nil, err
	}
	specs, err := baseline.Canonicalize(spec.Baselines)
	if err != nil {
		return nil, err
	}
	key := compareKey(spec.N, spec.Alpha, mk, specs)
	if c, ok, err := getCached[*baseline.Comparison](ctx, e.compares, key); ok || err != nil {
		return c, err
	}
	model := spec.Model
	n, alpha := spec.N, spec.Alpha
	if err := checkTheoremOne(model, mk, n, alpha); err != nil {
		return nil, err
	}
	return getTyped(ctx, e.compares, key, nil, func(solveCtx context.Context) (*baseline.Comparison, error) {
		return e.buildComparison(solveCtx, model, mk, n, alpha, specs)
	})
}

// buildComparison assembles one compare artifact from the nested
// artifact classes; the geometric row's interaction loss is the
// tailored loss. Loss values copied out of shared cached artifacts
// are cloned: the Comparison is itself cached and later encoded, and
// must not alias rationals owned by other cache entries.
func (e *Engine) buildComparison(ctx context.Context, m consumer.Model, mk string, n int, alpha *big.Rat, specs []baseline.Spec) (*baseline.Comparison, error) {
	tailored, err := e.modelTailoredCtx(ctx, m, mk, n, alpha)
	if err != nil {
		return nil, err
	}
	out := &baseline.Comparison{
		N:            n,
		Alpha:        rational.Clone(alpha),
		Model:        m.ModelName(),
		TailoredLoss: rational.Clone(tailored.Loss),
		Entries:      make([]baseline.Entry, 0, len(specs)),
	}
	for _, bs := range specs {
		mech, err := e.baselineMechanismCtx(ctx, bs, n, alpha)
		if err != nil {
			return nil, err
		}
		rawLoss, err := m.EvalLoss(mech)
		if err != nil {
			return nil, err
		}
		inLoss := tailored.Loss
		if bs.Kind != baseline.Geometric {
			in, err := e.modelInteractionCtx(ctx, m, mk, bs, n, alpha)
			if err != nil {
				return nil, err
			}
			inLoss = in.Loss
		}
		out.Entries = append(out.Entries, baseline.Entry{
			Spec:            bs.String(),
			Loss:            rawLoss,
			InteractionLoss: rational.Clone(inLoss),
			Gap:             rational.Sub(inLoss, tailored.Loss),
			BestAlpha:       mech.BestAlpha(),
		})
	}
	return out, nil
}

// modelTailoredCtx serves the tailored optimum for any consumer model
// through the tailored class, which solves it under a solve slot as
// the model's optimal interaction with G_{n,α}. mk is the model's
// Key(n), already validated by the caller; for minimax consumers the
// resulting cache key is identical to TailoredCtx's, so the two routes
// share entries. A model outside Theorem 1's hypotheses is an error
// (checkTheoremOne).
func (e *Engine) modelTailoredCtx(ctx context.Context, m consumer.Model, mk string, n int, alpha *big.Rat) (*consumer.Tailored, error) {
	if err := e.checkLPDomain(n); err != nil {
		return nil, err
	}
	key := lpKey(n, alpha, mk)
	if t, ok, err := getCached[*consumer.Tailored](ctx, e.tailored, key); ok || err != nil {
		return t, err
	}
	if err := checkTheoremOne(m, mk, n, alpha); err != nil {
		return nil, err
	}
	return getTyped(ctx, e.tailored, key, e.solves, func(solveCtx context.Context) (*consumer.Tailored, error) {
		g, err := e.GeometricCtx(solveCtx, n, alpha)
		if err != nil {
			return nil, err
		}
		opts, stats := lpOpts()
		in, err := m.OptimalInteractionCtx(solveCtx, g, opts)
		e.recordLP(e.tailored, key, stats)
		if err != nil {
			return nil, err
		}
		return &consumer.Tailored{Mechanism: in.Induced, Loss: in.Loss}, nil
	})
}

// checkTheoremOne rejects a model the tailored class cannot serve:
// outside consumer.GeometricOptimal's hypotheses (α ∈ (0, 1), a loss
// monotone in |i−r|) the optimal interaction with G_{n,α} need not be
// an optimal α-DP mechanism. loss.Validate is O(n²), so callers run it
// after their cache miss, off the hit path, and before getTyped, so a
// disk entry cannot bypass it.
func checkTheoremOne(m consumer.Model, mk string, n int, alpha *big.Rat) error {
	if consumer.GeometricOptimal(m, n, alpha) {
		return nil
	}
	return fmt.Errorf("engine: %s at α=%s is outside Theorem 1's hypotheses (α ∈ (0, 1), a loss monotone in |i−r|); solve it with consumer.OptimalMechanismCtx", mk, ratKey(alpha))
}

// modelInteractionCtx serves the model's optimal interaction with a
// non-geometric baseline bs through the interactions class; the
// geometric one is the tailored artifact.
func (e *Engine) modelInteractionCtx(ctx context.Context, m consumer.Model, mk string, bs baseline.Spec, n int, alpha *big.Rat) (*consumer.Interaction, error) {
	key := lpKey(n, alpha, mk) + "|vs=" + bs.String()
	if in, ok, err := getCached[*consumer.Interaction](ctx, e.interactions, key); ok || err != nil {
		return in, err
	}
	return getTyped(ctx, e.interactions, key, e.solves, func(solveCtx context.Context) (*consumer.Interaction, error) {
		deployed, err := e.baselineMechanismCtx(solveCtx, bs, n, alpha)
		if err != nil {
			return nil, err
		}
		opts, stats := lpOpts()
		in, err := m.OptimalInteractionCtx(solveCtx, deployed, opts)
		e.recordLP(e.interactions, key, stats)
		return in, err
	})
}

// baselineMechanismCtx serves a baseline mechanism through the
// mechanisms class. The geometric baseline is GeometricCtx itself
// (same cache entry); the others get "bl="-prefixed keys in the same
// store, since they are the same kind of artifact (an immutable
// row-stochastic matrix with an O(n²) build).
func (e *Engine) baselineMechanismCtx(ctx context.Context, bs baseline.Spec, n int, alpha *big.Rat) (*mechanism.Mechanism, error) {
	if bs.Kind == baseline.Geometric {
		return e.GeometricCtx(ctx, n, alpha)
	}
	key := "bl=" + bs.String() + "|" + geometricKey(n, alpha)
	if m, ok, err := getCached[*mechanism.Mechanism](ctx, e.mechanisms, key); ok || err != nil {
		return m, err
	}
	return getTyped(ctx, e.mechanisms, key, nil, func(context.Context) (*mechanism.Mechanism, error) {
		return bs.Build(n, alpha)
	})
}
