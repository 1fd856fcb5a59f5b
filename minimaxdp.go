// Package minimaxdp implements universally optimal differentially
// private mechanisms for minimax (risk-averse) information consumers,
// reproducing Gupte & Sundararajan, "Universally Optimal Privacy
// Mechanisms for Minimax Agents" (PODS 2010).
//
// # Model
//
// A count query over an n-row database returns an integer in {0..n}.
// An oblivious privacy mechanism perturbs that result: it is an
// (n+1)×(n+1) row-stochastic matrix x with x[i][r] = Pr[release r |
// true result i]. The mechanism is α-differentially private
// (α ∈ [0,1]) when probabilities on adjacent inputs stay within a
// multiplicative α…1/α band (Definition 2 of the paper); larger α
// means stronger privacy.
//
// An information consumer has a monotone loss function l(i,r) and side
// information S ⊆ {0..n}, and — being risk-averse — evaluates a
// mechanism by its worst-case expected loss over S (the minimax rule).
// A rational consumer post-processes the mechanism's output with the
// randomized reinterpretation that minimizes that worst-case loss.
//
// # Headline result
//
// The paper's Theorem 1, reproduced exactly by this library: deploying
// the geometric mechanism G_{n,α} is simultaneously optimal for every
// minimax consumer — each consumer's optimal post-processing of
// G_{n,α} achieves exactly the loss of the α-DP mechanism that would
// have been tailored to that consumer by the Section 2.5 linear
// program. Furthermore, one result can be released at several privacy
// levels α₁ < … < α_k in a collusion-resistant way by cascading
// stochastic transitions (Algorithm 1).
//
// # Quick start
//
//	alpha := minimaxdp.MustRat("1/2")      // privacy level
//	g, _ := minimaxdp.Geometric(100, alpha) // mechanism for a 100-row DB
//	release := g.Sample(42, rng)            // perturbed query result
//
//	gov := &minimaxdp.Consumer{Loss: minimaxdp.AbsoluteLoss()}
//	best, _ := minimaxdp.OptimalInteraction(gov, g)
//	// best.Induced is the mechanism the consumer effectively sees;
//	// best.Loss equals the tailored optimum (Theorem 1).
//
// All numerics are exact rationals (math/big.Rat): the theorem checks
// in this library are true equalities, not floating-point
// approximations.
package minimaxdp

import (
	"context"
	"math/big"
	"math/rand"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/derive"
	"minimaxdp/internal/engine"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
	"minimaxdp/internal/sample"
	"minimaxdp/internal/store"
)

// Mechanism is an oblivious privacy mechanism for a count query on
// {0..n}: an immutable row-stochastic matrix of release probabilities.
type Mechanism = mechanism.Mechanism

// Matrix is a dense matrix of exact rationals; consumer interactions
// (post-processing matrices) use this type.
type Matrix = matrix.Matrix

// Consumer is a minimax information consumer: a monotone loss function
// plus optional side information (the set of possible true results).
type Consumer = consumer.Consumer

// Bayesian is an information consumer in the Bayesian model of Ghosh
// et al. (STOC 2009), used for the Section 2.7 comparison: a prior
// over true results plus a loss function.
type Bayesian = consumer.Bayesian

// ConsumerModel is the unified consumer-model abstraction: anything
// that can score a mechanism exactly (EvalLoss), react optimally to a
// deployed one (OptimalInteractionCtx), and name its tailored optimum
// (OptimalMechanismCtx). *Consumer (minimax) and *Bayesian implement
// it, and every LP-backed serving surface — Engine.TailoredCtx,
// Engine.Compare, /v1/tailored, POST /v1/compare — accepts either
// through this one interface.
type ConsumerModel = consumer.Model

// Interaction is a consumer's optimal post-processing of a deployed
// mechanism: the reinterpretation matrix T, the induced mechanism y·T,
// and its minimax loss.
type Interaction = consumer.Interaction

// Tailored is the optimal α-DP mechanism computed for one known
// consumer, together with its loss.
type Tailored = consumer.Tailored

// ReleasePlan is a prepared multi-level release (Algorithm 1): one
// query result published at several privacy levels with correlated
// noise, collusion-resistantly.
type ReleasePlan = release.Plan

// LossFunction is a consumer loss l(i,r), assumed monotone
// non-decreasing in |i−r| (validated by ValidateLoss).
type LossFunction = loss.Function

// DPViolation describes a differential-privacy violation found by
// Mechanism.CheckDP.
type DPViolation = mechanism.DPViolation

// Rat parses an exact rational from a string such as "1/2" or "0.25".
func Rat(s string) (*big.Rat, error) { return rational.Parse(s) }

// MustRat is Rat for compile-time-known literals; panics on bad input.
func MustRat(s string) *big.Rat { return rational.MustParse(s) }

// NewRand returns the deterministic PRNG every sampling entry point of
// this module accepts. It is the single sanctioned constructor
// (enforced by the randsource analyzer in cmd/dpvet): routing all
// randomness through one seedable source keeps every experiment
// reproducible from its -seed flag and leaves one swap point should
// release builds ever move to crypto/rand.
//
// The returned PRNG is NOT goroutine-safe. Concurrent samplers must
// use one PRNG per goroutine or draw through an Engine's samplers
// (Engine.Sampler with a SamplerSpec).
func NewRand(seed int64) *rand.Rand { return sample.NewRand(seed) }

// Geometric returns the range-restricted α-geometric mechanism
// G_{n,α} (Definition 4 of the paper): two-sided geometric noise with
// ratio α added to the true result and clamped into [0,n]. It is
// α-differentially private and, by Theorem 1, universally optimal for
// all minimax consumers.
func Geometric(n int, alpha *big.Rat) (*Mechanism, error) {
	return mechanism.Geometric(n, alpha)
}

// NewMechanism wraps a row-stochastic matrix as a Mechanism,
// validating stochasticity.
func NewMechanism(m *Matrix) (*Mechanism, error) { return mechanism.New(m) }

// MechanismFromStrings builds a mechanism from rational string
// entries, e.g. {{"1/2","1/2"},{"1/4","3/4"}}.
func MechanismFromStrings(rows [][]string) (*Mechanism, error) {
	return mechanism.FromStrings(rows)
}

// Uniform returns the output-independent uniform mechanism on {0..n}
// (perfect privacy, zero utility) — a baseline.
func Uniform(n int) (*Mechanism, error) { return mechanism.Uniform(n) }

// IdentityMechanism returns the mechanism that releases the exact
// result (no privacy) — a baseline.
func IdentityMechanism(n int) (*Mechanism, error) { return mechanism.Identity(n) }

// RandomizedResponse returns the classical randomized-response
// mechanism: truth with probability p, uniform otherwise — a
// non-geometric DP baseline.
func RandomizedResponse(n int, p *big.Rat) (*Mechanism, error) {
	return mechanism.RandomizedResponse(n, p)
}

// AbsoluteLoss returns l(i,r) = |i−r| (mean error).
func AbsoluteLoss() LossFunction { return loss.Absolute{} }

// SquaredLoss returns l(i,r) = (i−r)² (variance of error).
func SquaredLoss() LossFunction { return loss.Squared{} }

// ZeroOneLoss returns l(i,r) = 1{i ≠ r} (frequency of error).
func ZeroOneLoss() LossFunction { return loss.ZeroOne{} }

// DeadbandLoss returns l(i,r) = max(0, |i−r|−width).
func DeadbandLoss(width int) LossFunction { return loss.Deadband{Width: width} }

// ValidateLoss checks the paper's Section 2.3 assumption (monotone
// non-decreasing in |i−r|) on the domain {0..n}.
func ValidateLoss(l LossFunction, n int) error { return loss.Validate(l, n) }

// SideInterval builds contiguous side information {lo..hi}, the common
// case (population upper bounds, sales lower bounds).
func SideInterval(lo, hi int) []int { return consumer.Interval(lo, hi) }

// OptimalInteraction solves the consumer's optimal post-processing LP
// (Section 2.4.3) against a deployed mechanism. By Theorem 1, when the
// deployed mechanism is Geometric(n, α), the result's Loss equals
// OptimalMechanism(c, n, α).Loss for every consumer c.
func OptimalInteraction(c *Consumer, deployed *Mechanism) (*Interaction, error) {
	return consumer.OptimalInteraction(c, deployed)
}

// OptimalInteractionCtx is OptimalInteraction under a context: the
// simplex pivot loop checks ctx between pivots, so canceling aborts a
// long solve promptly with ctx.Err().
func OptimalInteractionCtx(ctx context.Context, c *Consumer, deployed *Mechanism) (*Interaction, error) {
	return consumer.OptimalInteractionCtx(ctx, c, deployed)
}

// OptimalMechanism solves the Section 2.5 LP: the α-DP mechanism
// minimizing the consumer's minimax loss.
func OptimalMechanism(c *Consumer, n int, alpha *big.Rat) (*Tailored, error) {
	return consumer.OptimalMechanism(c, n, alpha)
}

// OptimalMechanismCtx is OptimalMechanism under a context; see
// OptimalInteractionCtx for the cancellation contract.
func OptimalMechanismCtx(ctx context.Context, c *Consumer, n int, alpha *big.Rat) (*Tailored, error) {
	return consumer.OptimalMechanismCtx(ctx, c, n, alpha)
}

// BayesianInteraction is a Bayesian consumer's optimal reaction to a
// deployed mechanism: a deterministic posterior remap.
type BayesianInteraction = consumer.BayesianInteraction

// OptimalBayesianInteraction computes the Bayes-optimal deterministic
// remap of a deployed mechanism's outputs (Section 2.7 comparison).
func OptimalBayesianInteraction(b *Bayesian, deployed *Mechanism) (*BayesianInteraction, error) {
	return consumer.OptimalBayesianInteraction(b, deployed)
}

// OptimalBayesianInteractionCtx is OptimalBayesianInteraction under a
// context; see OptimalInteractionCtx for the cancellation contract.
func OptimalBayesianInteractionCtx(ctx context.Context, b *Bayesian, deployed *Mechanism) (*BayesianInteraction, error) {
	return consumer.OptimalBayesianInteractionCtx(ctx, b, deployed)
}

// OptimalBayesianMechanism solves the Bayesian analogue of the
// Section 2.5 LP (Ghosh et al.'s objective).
func OptimalBayesianMechanism(b *Bayesian, n int, alpha *big.Rat) (*Tailored, error) {
	return consumer.OptimalBayesianMechanism(b, n, alpha)
}

// OptimalBayesianMechanismCtx is OptimalBayesianMechanism under a
// context; see OptimalInteractionCtx for the cancellation contract.
func OptimalBayesianMechanismCtx(ctx context.Context, b *Bayesian, n int, alpha *big.Rat) (*Tailored, error) {
	return consumer.OptimalBayesianMechanismCtx(ctx, b, n, alpha)
}

// UniformPrior returns the uniform prior on {0..n} for Bayesian
// consumers.
func UniformPrior(n int) []*big.Rat { return consumer.UniformPrior(n) }

// Derivable reports whether mechanism m can be obtained from
// Geometric(n, α) by randomized post-processing, via Theorem 2's
// three-term characterization: for every column, (1+α²)·x₂ −
// α·(x₁+x₃) ≥ 0 on all consecutive triples.
func Derivable(m *Mechanism, alpha *big.Rat) bool { return derive.Derivable(m, alpha) }

// Factor computes the unique post-processing T with m = G_{n,α}·T, or
// an error wrapping derive.ErrNotDerivable when none exists.
func Factor(m *Mechanism, alpha *big.Rat) (*Matrix, error) { return derive.Factor(m, alpha) }

// Transition returns the Lemma 3 stochastic matrix T_{α,β} with
// G_{n,β} = G_{n,α}·T_{α,β}, defined whenever α ≤ β (privacy can only
// be added, never removed).
func Transition(n int, alpha, beta *big.Rat) (*Matrix, error) {
	return derive.Transition(n, alpha, beta)
}

// NewReleasePlan prepares Algorithm 1 for privacy levels α₁ < … < α_k:
// Release then publishes one correlated result per level, and any
// coalition of consumers learns no more than its least-private member
// (Lemma 4).
func NewReleasePlan(n int, alphas []*big.Rat) (*ReleasePlan, error) {
	return release.NewPlan(n, alphas)
}

// RowPairStructure describes the Lemma 5 tight-prefix/tight-suffix
// pattern of one adjacent row pair of a mechanism.
type RowPairStructure = consumer.RowPairStructure

// CheckLemma5 verifies the paper's Lemma 5 structure on a mechanism:
// every adjacent row pair is pinned by the privacy constraints except
// for at most one slack column.
func CheckLemma5(m *Mechanism, alpha *big.Rat) ([]RowPairStructure, error) {
	return consumer.CheckLemma5(m, alpha)
}

// OptimalMechanismRefined is OptimalMechanism followed by the
// lexicographic tie-breaking used in the proof of Lemma 5: among
// minimax-optimal mechanisms it returns one minimizing the secondary
// objective Σ x[i][r]·|i−r|, which is guaranteed to satisfy
// CheckLemma5.
func OptimalMechanismRefined(c *Consumer, n int, alpha *big.Rat) (*Tailored, error) {
	return consumer.OptimalMechanismRefined(c, n, alpha)
}

// DerivableFrom decides Definition 3 between arbitrary mechanisms: it
// returns a row-stochastic T with x = y·T when one exists (so a
// consumer of y can simulate x), or an error wrapping
// derive.ErrNotDerivable. Unlike Factor this handles singular deployed
// mechanisms via exact LP feasibility.
func DerivableFrom(x, y *Mechanism) (*Matrix, error) { return derive.DerivableFrom(x, y) }

// OptimalDeterministicInteraction finds the best deterministic remap
// of a deployed mechanism by exhaustive enumeration (n ≤ 6) — the
// restriction §2.7 contrasts with randomized post-processing.
func OptimalDeterministicInteraction(c *Consumer, deployed *Mechanism) (*Interaction, error) {
	return consumer.OptimalDeterministicInteraction(c, deployed)
}

// --- baseline mechanisms and the compare workbench ------------------------

// BaselineKind names a baseline mechanism family for the compare
// workbench; see the Baseline* constants.
type BaselineKind = baseline.Kind

// Baseline mechanism families scored by the compare workbench.
const (
	// BaselineGeometric is G_{n,α} — by Theorem 1, its gap is exactly
	// zero for every minimax consumer.
	BaselineGeometric = baseline.Geometric
	// BaselineStaircase is the Geng–Viswanath banded staircase family;
	// width 1 coincides with the geometric mechanism.
	BaselineStaircase = baseline.KindStaircase
	// BaselineLaplace is the truncated-and-renormalized discrete
	// Laplace. Renormalization breaks the α-DP band, so its BestAlpha
	// is strictly below the construction α.
	BaselineLaplace = baseline.KindLaplace
)

// BaselineSpec selects one baseline mechanism (a kind plus the
// staircase width, where applicable).
type BaselineSpec = baseline.Spec

// ParseBaselineSpec parses a wire-format baseline spec such as
// "geometric", "laplace", or "staircase:3".
func ParseBaselineSpec(s string) (BaselineSpec, error) { return baseline.ParseSpec(s) }

// DefaultBaselines returns the default comparison set: geometric,
// staircase (default width), and truncated Laplace.
func DefaultBaselines() []BaselineSpec { return baseline.DefaultSet() }

// StaircaseMechanism returns the width-w staircase mechanism on
// {0..n}: geometric decay across bands of w equal-probability steps,
// built exactly in rationals. It is exactly α-DP; width 1 coincides
// with Geometric(n, alpha).
func StaircaseMechanism(n int, alpha *big.Rat, w int) (*Mechanism, error) {
	return baseline.Staircase(n, alpha, w)
}

// TruncatedLaplaceMechanism returns the discrete Laplace distribution
// truncated to [0,n] and renormalized. NOTE: renormalization makes it
// NOT α-DP — its actual privacy level (Mechanism.BestAlpha) is
// strictly below the construction α. It is included as the classical
// "clip the noise" strawman the paper's clamping construction fixes.
func TruncatedLaplaceMechanism(n int, alpha *big.Rat) (*Mechanism, error) {
	return baseline.TruncatedLaplace(n, alpha)
}

// Comparison is one consumer's optimality-gap scorecard: the tailored
// LP optimum plus, per baseline, the raw loss, the loss after the
// consumer's optimal post-processing, and the gap to tailored — all
// exact rationals. Produced by Engine.Compare.
type Comparison = baseline.Comparison

// CompareEntry is one baseline's row in a Comparison.
type CompareEntry = baseline.Entry

// CompareSpec asks Engine.Compare for a cached Comparison: domain
// size, privacy level, a ConsumerModel (minimax or Bayesian), and the
// baseline set (nil means DefaultBaselines).
type CompareSpec = engine.CompareSpec

// --- the serving engine ---------------------------------------------------

// Engine is the concurrent mechanism-serving layer: a compute-once,
// concurrency-safe front over every served exact artifact (geometric
// mechanisms, release plans with their Lemma 3 transitions, the
// tailored optima and the compare scorecards), with keyed caches,
// singleflight request coalescing, pooled alias-table samplers, and a
// JSON-ready metrics surface. Construct one per process and share it;
// see internal/engine for cache-key semantics.
//
// Every artifact method has a context-taking form (Engine.TailoredCtx,
// Engine.CompareCtx, Engine.GeometricCtx, ...). The context bounds
// only the caller's wait: a solve, once started, runs to completion
// and is cached whoever still waits, so a retry joins it or hits.
// Engine.Close cancels running solves (the cancellation reaches the LP
// pivot loop) and caches none of them. The LP-backed methods and
// release-plan builds shed load with ErrEngineSaturated once
// EngineConfig.MaxInFlightSolves concurrent solves are running.
// Outside Theorem 1's hypotheses (α ∉ (0, 1), a non-monotone loss)
// TailoredCtx and CompareCtx fail; OptimalMechanismCtx solves those.
type Engine = engine.Engine

// EngineConfig tunes an Engine's in-flight solve bound, LP domain
// cap, sampler-pool seed, trace hook and disk store; the zero value is
// ready to use. Cache capacities are fixed by the engine.
type EngineConfig = engine.Config

// EngineMetrics is the engine's expvar-style counter snapshot
// (requests, compute time and latency histograms, shed counts, cache
// hit/miss/coalesced/eviction counts per artifact class, and the
// in-flight solve gauge); it marshals directly to JSON.
type EngineMetrics = engine.Metrics

// Sampler draws from a fixed mechanism in O(1) per draw through the
// mechanism's own alias tables. Unlike Mechanism.Sample it is safe for
// concurrent use: every draw takes words from its engine's one
// lock-free PRNG stream. Obtain one from Engine.Sampler with a
// SamplerSpec.
type Sampler = engine.Sampler

// SamplerSpec selects the mechanism an Engine.Sampler views: set N
// and Alpha for the cached geometric mechanism, or Mechanism for an
// arbitrary one.
type SamplerSpec = engine.SamplerSpec

// TraceEvent is one span event on an Engine's serving path (cache
// hit/miss, coalesced join, solve start/finish with duration, shed).
type TraceEvent = engine.TraceEvent

// TraceKind labels a TraceEvent; see the engine.Trace* constants.
type TraceKind = engine.TraceKind

// TraceFunc receives every span event of an Engine when installed via
// EngineConfig.Trace. Hooks run synchronously on the serving
// goroutine and must be cheap and concurrency-safe.
type TraceFunc = engine.TraceFunc

// ErrEngineSaturated is returned by the engine's LP-backed methods
// and release-plan builds when the in-flight solve bound is reached: the request was rejected
// before any work started and is safe to retry after backoff.
var ErrEngineSaturated = engine.ErrSaturated

// NewEngine builds a serving engine from cfg (zero value fine).
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// ArtifactStore is the content-addressed disk store for exact
// artifacts (mechanisms, release plans with their transitions,
// tailored solutions, compare results, alias tables). Payloads are
// deterministic canonical rational encodings — no floats touch disk —
// and every read is checksum-verified: a corrupt entry is quarantined
// and reported as a miss, never returned. Install one via
// EngineConfig.Store and a restarted engine warm-boots from disk with
// zero LP solves.
type ArtifactStore = store.Store

// ArtifactStoreStats is an ArtifactStore's counter snapshot (hits,
// misses, writes, write errors, quarantined corrupt entries).
type ArtifactStoreStats = store.Stats

// OpenArtifactStore opens (creating if needed) a disk-backed artifact
// store rooted at dir.
func OpenArtifactStore(dir string) (*ArtifactStore, error) { return store.Open(dir) }
