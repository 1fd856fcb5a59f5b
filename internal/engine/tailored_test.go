package engine

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/rational"
)

// lpTrace records which artifact classes reported an LP solve path.
type lpTrace struct {
	mu      sync.Mutex
	classes map[string]int
}

func (r *lpTrace) hook(ev TraceEvent) {
	switch ev.Kind {
	case TraceWarmStartHit, TraceWarmStartResume, TraceWarmStartFallback:
		r.mu.Lock()
		if r.classes == nil {
			r.classes = make(map[string]int)
		}
		r.classes[ev.Artifact]++
		r.mu.Unlock()
	}
}

func (r *lpTrace) count(class string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.classes[class]
}

// skewedPrior puts weight proportional to i+1 on each i ∈ {0..n}.
func skewedPrior(n int) []*big.Rat {
	total := int64((n + 1) * (n + 2) / 2)
	out := make([]*big.Rat, n+1)
	for i := range out {
		out[i] = rational.New(int64(i+1), total)
	}
	return out
}

// TestTailoredServesTheoremOne keeps Theorem 1 tested now that the
// engine serves its mechanism instead of solving the §2.5 LP. Over
// the n=8 grid — four losses × full/{1..7} side × α ∈ {1/3, 1/2, 2/3}
// for minimax consumers, absolute/squared loss × uniform/skewed prior
// at the same α for Bayesian ones — the served loss must equal the
// LP optimum (consumer.OptimalMechanism or its Bayesian analogue), the
// served mechanism must be α-DP and stochastic, and the miss must run
// exactly one solve, in the interactions class: an interaction LP for
// minimax, the remap scan (no LP) for Bayesian; no §2.5 or Bayesian
// LP. Keys whose bytes differ from the LP's canonical optimum are
// counted and logged; the losses are what the contract fixes.
func TestTailoredServesTheoremOne(t *testing.T) {
	const n = 8
	alphas := []*big.Rat{rational.New(1, 3), rational.New(1, 2), rational.New(2, 3)}
	var models []consumer.Model
	for _, l := range []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}} {
		models = append(models,
			&consumer.Consumer{Loss: l},
			&consumer.Consumer{Loss: l, Side: consumer.Interval(1, n-1)})
	}
	for _, l := range []loss.Function{loss.Absolute{}, loss.Squared{}} {
		models = append(models,
			&consumer.Bayesian{Loss: l, Prior: consumer.UniformPrior(n)},
			&consumer.Bayesian{Loss: l, Prior: skewedPrior(n)})
	}
	var differ []string
	keys := 0
	for _, m := range models {
		for _, alpha := range alphas {
			mk, err := m.Key(n)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("α=%s %s", alpha.RatString(), mk)
			if !consumer.GeometricOptimal(m, n, alpha) {
				t.Fatalf("%s: outside Theorem 1's hypotheses", name)
			}
			var tr lpTrace
			e := newEngine(t, Config{Trace: tr.hook})
			got, err := e.TailoredMechanism(m, n, alpha)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := m.OptimalMechanismCtx(context.Background(), n, alpha, lp.SolveOpts{})
			if err != nil {
				t.Fatalf("%s: LP: %v", name, err)
			}
			keys++
			if got.Loss.Cmp(want.Loss) != 0 {
				t.Errorf("%s: served loss %s, LP optimum %s", name, got.Loss.RatString(), want.Loss.RatString())
			}
			if err := got.Mechanism.CheckDP(alpha); err != nil {
				t.Errorf("%s: served mechanism not α-DP: %v", name, err)
			}
			if !got.Mechanism.Matrix().IsStochastic() {
				t.Errorf("%s: served mechanism not stochastic", name)
			}
			met := e.Metrics()
			wantSolves := uint64(1)
			if _, bayes := m.(*consumer.Bayesian); bayes {
				wantSolves = 0 // the remap scan solves no LP
			}
			if met.LP.Solves != wantSolves || met.Interactions.Cache.Misses != 1 || tr.count("tailored") != 0 {
				t.Errorf("%s: %d LP solves, %d interaction misses, %d tailored LP paths; want %d LP solves in the one interaction miss",
					name, met.LP.Solves, met.Interactions.Cache.Misses, tr.count("tailored"), wantSolves)
			}
			if !got.Mechanism.Equal(want.Mechanism) {
				differ = append(differ, name)
			}
		}
	}
	t.Logf("%d of %d keys serve bytes other than the LP's canonical optimum (equal loss): %v", len(differ), keys, differ)
}

// TestTailoredFallbackMatchesLP: inputs outside Theorem 1's
// hypotheses — α = 1, where G_{n,α} is undefined, and a non-monotone
// loss.Table — keep the tailored LP, so the engine serves exactly
// consumer.OptimalMechanism's bytes, solved in the tailored class.
func TestTailoredFallbackMatchesLP(t *testing.T) {
	const n = 6
	asym := loss.Table{Entries: loss.Matrix(loss.Asymmetric{Over: rational.Int(1), Under: rational.Int(3)}, n), Label: "asym(1,3)"}
	for _, tc := range []struct {
		c     *consumer.Consumer
		alpha *big.Rat
	}{
		{&consumer.Consumer{Loss: loss.Absolute{}}, rational.One()},
		{&consumer.Consumer{Loss: asym}, rational.New(1, 2)},
		{&consumer.Consumer{Loss: asym, Side: consumer.Interval(1, n-1)}, rational.New(1, 3)},
	} {
		name := fmt.Sprintf("α=%s %s", tc.alpha.RatString(), tc.c.Loss.Name())
		if consumer.GeometricOptimal(tc.c, n, tc.alpha) {
			t.Fatalf("%s: inside Theorem 1's hypotheses", name)
		}
		var tr lpTrace
		e := newEngine(t, Config{Trace: tr.hook})
		got, err := e.TailoredMechanism(tc.c, n, tc.alpha)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := consumer.OptimalMechanism(tc.c, n, tc.alpha)
		if err != nil {
			t.Fatalf("%s: LP: %v", name, err)
		}
		if !got.Mechanism.Equal(want.Mechanism) || got.Loss.Cmp(want.Loss) != 0 {
			t.Errorf("%s: engine bytes differ from consumer.OptimalMechanism's", name)
		}
		met := e.Metrics()
		if met.LP.Solves != 1 || met.Interactions.Requests != 0 || tr.count("tailored") != 1 {
			t.Errorf("%s: %d LP solves, %d interaction requests, %d tailored LP paths; want the one tailored LP",
				name, met.LP.Solves, met.Interactions.Requests, tr.count("tailored"))
		}
	}
}
