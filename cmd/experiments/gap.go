// The -mode=gap sweep: the mechanism-design workbench as a batch
// experiment. It drives the engine's compare artifact class over a
// grid of domain sizes, privacy levels, and consumers — the built-in
// losses, seeded-random side sets, and Bayesian priors — scoring the
// default baseline set (geometric, staircase, laplace) against each
// consumer's tailored optimum.
//
// The sweep doubles as a test oracle: Theorem 1 part 2 says every
// minimax consumer's geometric gap is exactly zero, so the sweep
// HARD-FAILS (non-zero exit through main) the moment any minimax
// geometric row shows a nonzero gap, and prints a certificate line
// counting the identities it verified. Bayesian rows and the other
// baselines are reported as gap tables — the paper's point being that
// those gaps are generally nonzero.

package main

import (
	"fmt"
	"io"
	"math/big"
	"math/rand"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/engine"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/sample"
)

// gapNs and gapAlphas fix the sweep grid; small n keeps the full
// sweep (grid × consumers × baselines LP solves) interactive.
var gapNs = []int{2, 3, 4}

func gapAlphas() []*big.Rat {
	return []*big.Rat{rational.New(1, 4), rational.New(1, 2), rational.New(2, 3)}
}

func gapLosses() []loss.Function {
	return []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}}
}

// randomSide draws a nonempty random subset of {0..n}.
func randomSide(rng *rand.Rand, n int) []int {
	var side []int
	for i := 0; i <= n; i++ {
		if rng.Intn(2) == 1 {
			side = append(side, i)
		}
	}
	if len(side) == 0 {
		side = []int{rng.Intn(n + 1)}
	}
	return side
}

// randomPrior draws a full-support random prior on {0..n} with small
// integer weights, normalized exactly.
func randomPrior(rng *rand.Rand, n int) []*big.Rat {
	weights := make([]int64, n+1)
	var total int64
	for i := range weights {
		weights[i] = int64(1 + rng.Intn(4))
		total += weights[i]
	}
	out := make([]*big.Rat, n+1)
	for i, wt := range weights {
		out[i] = rational.New(wt, total)
	}
	return out
}

// gapModels assembles the consumer panel for one (n, α) cell: every
// built-in loss full-domain, two random side-informed minimax
// consumers, and two Bayesian consumers (uniform and random prior).
func gapModels(rng *rand.Rand, n int) []consumer.Model {
	losses := gapLosses()
	models := make([]consumer.Model, 0, len(losses)+4)
	for _, lf := range losses {
		models = append(models, &consumer.Consumer{Loss: lf})
	}
	for k := 0; k < 2; k++ {
		models = append(models, &consumer.Consumer{
			Loss: losses[rng.Intn(len(losses))],
			Side: randomSide(rng, n),
		})
	}
	models = append(models,
		&consumer.Bayesian{Loss: loss.Absolute{}, Prior: consumer.UniformPrior(n)},
		&consumer.Bayesian{Loss: losses[rng.Intn(len(losses))], Prior: randomPrior(rng, n)},
	)
	return models
}

// runGapSweep executes the sweep and writes the gap tables plus the
// zero-gap certificate line. Any nonzero minimax geometric gap is an
// error: the Theorem 1 oracle has been violated.
func runGapSweep(w io.Writer, cfg config) error {
	eng := engine.New(engine.Config{Seed: cfg.seed})
	defer eng.Close()
	rng := sample.NewRand(cfg.seed)
	var certified, rows int
	for _, n := range gapNs {
		for _, alpha := range gapAlphas() {
			for _, m := range gapModels(rng, n) {
				mk, err := m.Key(n)
				if err != nil {
					return err
				}
				cmp, err := eng.Compare(engine.CompareSpec{N: n, Alpha: alpha, Model: m})
				if err != nil {
					return fmt.Errorf("compare n=%d α=%s %s: %w", n, alpha.RatString(), mk, err)
				}
				if err := cmp.Validate(); err != nil {
					return fmt.Errorf("compare n=%d α=%s %s: %w", n, alpha.RatString(), mk, err)
				}
				for _, e := range cmp.Entries {
					rows++
					fmt.Fprintf(w, "n=%d α=%-4s %-8s %-40s %-11s tailored=%-8s interact=%-8s gap=%s\n",
						n, alpha.RatString(), cmp.Model, mk, e.Spec,
						cmp.TailoredLoss.RatString(), e.InteractionLoss.RatString(), e.Gap.RatString())
					if cmp.Model != "minimax" || e.Spec != string(baseline.Geometric) {
						continue
					}
					if e.Gap.Sign() != 0 {
						return fmt.Errorf(
							"ZERO-GAP CERTIFICATE VIOLATED: n=%d α=%s %s geometric gap = %s (Theorem 1 part 2 demands exactly 0)",
							n, alpha.RatString(), mk, e.Gap.RatString())
					}
					certified++
				}
			}
		}
	}
	fmt.Fprintf(w, "\nTheorem 1 zero-gap certificate: %d minimax consumer identities verified (geometric gap exactly 0), %d gap rows total\n",
		certified, rows)
	if certified == 0 {
		return fmt.Errorf("gap sweep certified nothing — sweep grid is broken")
	}
	return nil
}
