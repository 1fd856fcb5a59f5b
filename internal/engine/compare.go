// The compare artifact class: the engine-cached optimality-gap
// scorecard behind POST /v1/compare and the experiments gap sweep.
// One compare artifact fixes (n, α, consumer model, baseline set) and
// answers, all in exact rationals: what does each baseline mechanism
// cost this consumer as deployed, what does it cost after the
// consumer's optimal post-processing, and how far is that from the
// α-DP mechanism tailored to this exact consumer? Theorem 1 part 2 is
// the headline row: the tailored optimum is served as the consumer's
// optimal interaction with G_{n,α}, so the geometric entry's Gap is
// zero by construction (cmd/experiments -mode=gap and the engine tests
// check it against the §2.5 LP).
//
// The class composes the existing artifact classes rather than
// re-solving: the tailored optimum and the per-baseline interactions
// are served through the tailored/interactions stores (so a compare
// shares cache and disk entries with /v1/tailored and
// Engine.InteractionCtx, and its LP solves are bounded by the same
// in-flight-solve semaphore), and the baseline mechanisms live in the
// mechanisms store. The geometric row and the tailored optimum are one
// interaction solve, so a default minimax compare runs three LPs. Only
// the final assembled scorecard is cached — and persisted — under the
// compare class itself.

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
// tailored optimum and one interaction per baseline, each served
// through its own artifact class (cache, disk store, and solve
// semaphore included), so a compare against a warm engine costs no LP
// work at all and a saturated engine sheds the nested solves with
// ErrSaturated exactly like the individual routes. The returned
// Comparison is shared between callers and must be treated as
// read-only.
func (e *Engine) CompareCtx(ctx context.Context, spec CompareSpec) (*baseline.Comparison, error) {
	if err := checkRat("alpha", spec.Alpha); err != nil {
		return nil, err
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
	return getTyped(ctx, e.compares, key, nil, func(solveCtx context.Context) (*baseline.Comparison, error) {
		return e.buildComparison(solveCtx, model, mk, n, alpha, specs)
	})
}

// buildComparison assembles one compare artifact from the nested
// artifact classes. Loss values copied out of shared cached artifacts
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
		in, err := e.modelInteractionCtx(ctx, m, mk, bs, n, alpha)
		if err != nil {
			return nil, err
		}
		out.Entries = append(out.Entries, baseline.Entry{
			Spec:            bs.String(),
			Loss:            rawLoss,
			InteractionLoss: rational.Clone(in.Loss),
			Gap:             rational.Sub(in.Loss, tailored.Loss),
			BestAlpha:       mech.BestAlpha(),
		})
	}
	return out, nil
}

// modelTailoredCtx serves the tailored optimum for any consumer model
// through the tailored class. mk is the model's Key(n), already
// validated by the caller; for minimax consumers the resulting cache
// key is identical to TailoredCtx's, so the two routes share entries.
//
// Where consumer.GeometricOptimal holds, the class is a composite like
// compares: the artifact is the model's optimal interaction with
// G_{n,α}, read through the interactions class under the same key the
// compare's geometric row uses, and the interaction solve takes the
// solve slot. Elsewhere the tailored LP runs here, under a slot of its
// own.
func (e *Engine) modelTailoredCtx(ctx context.Context, m consumer.Model, mk string, n int, alpha *big.Rat) (*consumer.Tailored, error) {
	if err := e.checkLPDomain(n); err != nil {
		return nil, err
	}
	key := lpKey(n, alpha, mk)
	if t, ok, err := getCached[*consumer.Tailored](ctx, e.tailored, key); ok || err != nil {
		return t, err
	}
	if consumer.GeometricOptimal(m, n, alpha) {
		return getTyped(ctx, e.tailored, key, nil, func(solveCtx context.Context) (*consumer.Tailored, error) {
			in, err := e.modelInteractionCtx(solveCtx, m, mk, baseline.Spec{Kind: baseline.Geometric}, n, alpha)
			if err != nil {
				return nil, err
			}
			return &consumer.Tailored{Mechanism: in.Induced, Loss: in.Loss}, nil
		})
	}
	return getTyped(ctx, e.tailored, key, e.solves, func(solveCtx context.Context) (*consumer.Tailored, error) {
		opts, stats := lpOpts()
		t, err := m.OptimalMechanismCtx(solveCtx, n, alpha, opts)
		e.recordLP(e.tailored, key, stats)
		return t, err
	})
}

// modelInteractionCtx serves the model's optimal interaction with the
// deployed baseline bs through the interactions class. The geometric
// baseline uses the bare lpKey — the same key InteractionCtx uses —
// so compare requests and /v1/interaction requests coalesce onto one
// solve; other baselines append their spec.
func (e *Engine) modelInteractionCtx(ctx context.Context, m consumer.Model, mk string, bs baseline.Spec, n int, alpha *big.Rat) (*consumer.Interaction, error) {
	if err := e.checkLPDomain(n); err != nil {
		return nil, err
	}
	key := lpKey(n, alpha, mk)
	if bs.Kind != baseline.Geometric {
		key += "|vs=" + bs.String()
	}
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
