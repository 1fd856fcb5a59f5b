// Package engine is the concurrent mechanism-serving layer of
// minimaxdp: it sits between the exact core (mechanism, derive,
// consumer, release) and every serving surface (cmd/dpserver, CLIs,
// library users) and makes the expensive artifacts compute-once.
//
// Every artifact this module serves — the geometric mechanism G_{n,α}
// (Theorem 1), multi-level release plans (Algorithm 1, each carrying
// its own Lemma 3 transitions), and the LP optima of §2.4.3/§2.5 — is
// a deterministic, total function of its parameters. Exact rational
// arithmetic has no rounding modes and no environment dependence, so
// the parameters form a sound cache key: two computations with equal
// keys yield equal artifacts, always. The engine exploits this with
// three mechanisms:
//
//   - a keyed artifact cache per artifact class (size-bounded, LRU by
//     generation stamp, hit/miss/eviction counters);
//   - singleflight-style request coalescing, so N concurrent requests
//     for the same not-yet-cached artifact run the computation once
//     and share the result (critical for the LP solves, which cost
//     milliseconds to minutes while a cache hit costs nanoseconds);
//   - dyadic alias samplers that view a cached mechanism's rows and
//     draw over a GOMAXPROCS-sized array of sampler shards, each shard
//     owning a lock-free splitmix64 stream and its own counters, so
//     concurrent draws never contend on a shared PRNG or a shared
//     cache line.
//
// # Computation lifetime and admission control
//
// Every artifact method has a context-taking form (GeometricCtx,
// TailoredCtx, ...). The context bounds only the caller's wait: a
// computation, once started, runs to completion under the engine's
// root context, keeps its in-flight slot, and is cached (and
// persisted) whoever still waits, so a retry joins it or hits the
// cache. Only Close cancels running computations; the root context
// reaches the LP pivot loop. Errors are never cached.
//
// The expensive classes (release plans and the LP-backed tailored and
// interactions) additionally pass through a bounded in-flight-solve
// semaphore (Config.MaxInFlightSolves). Admission is non-blocking:
// when the bound is reached, new solves fail immediately with
// ErrSaturated rather than queueing, so overload surfaces as a fast,
// retryable rejection. Cache hits and coalesced joins are never shed.
//
// Cached artifacts are shared between callers and must be treated as
// read-only: every class caches an immutable type
// (*mechanism.Mechanism, *release.Plan, the solved LP results), which
// is returned directly.
//
// Cache keys for LP solves include the consumer's loss function via
// loss.Function.Name(). The built-in losses embed their parameters in
// their names (e.g. "deadband(2)", "1/3×absolute"), making the name a
// faithful identity; users of loss.Table must give distinct tables
// distinct Labels or bypass the engine.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/release"
	diskstore "minimaxdp/internal/store"
)

// Cache capacities (entries, not bytes — artifacts are O((n+1)²)
// rationals, so a few hundred entries of moderate n fit comfortably in
// memory). matrixCacheSize bounds the mechanism and release-plan
// caches, lpCacheSize the tailored, interaction and compare caches
// (LP solutions; the most expensive artifacts).
const (
	matrixCacheSize = 64
	lpCacheSize     = 256
)

// DefaultMaxInFlightSolves bounds concurrent solves (LP solves and
// release-plan builds) when Config.MaxInFlightSolves is not positive.
// Both are single-threaded and CPU-bound, so a bound in the low tens
// keeps a loaded server responsive without starving throughput on
// typical hardware.
const DefaultMaxInFlightSolves = 16

// ErrSaturated is returned (wrapped) by the LP-backed artifact methods
// and by ReleasePlanCtx when the engine's in-flight solve bound is
// reached. The request was rejected before any work started; it is
// safe to retry after backoff.
var ErrSaturated = errors.New("engine: too many solves in flight")

// DefaultMaxLPDomainN bounds the domain size n of LP-backed artifacts
// when Config.MaxLPDomainN is not positive. Even on the float-guided
// revised-simplex path a cold tailored solve scales steeply in n (the
// absolute loss at α ∈ {1/2, 1/3}: 4–5 ms at n=8, 0.09–0.13 s at n=16,
// 1.5–3.4 s at n=24 and 11–37 s at n=32 on a 2-vCPU amd64 container),
// so an unbounded n from untrusted input could pin a solver slot for
// far longer. 32 is the largest size whose common keys are still
// plausibly interactive; DESIGN §9 lists slower ones.
const DefaultMaxLPDomainN = 32

// ErrDomainTooLarge is returned (wrapped) by the LP-backed artifact
// methods when the requested domain size n exceeds Config.MaxLPDomainN.
// The request was rejected before any work started; it will never
// succeed without reconfiguring the engine.
var ErrDomainTooLarge = errors.New("engine: LP domain size exceeds cap")

// Config tunes an Engine. The zero value is ready to use: every bound
// defaults to the package constants and the sampler pool seeds from
// Seed (default 1).
type Config struct {
	// MaxInFlightSolves bounds concurrently running solves across the
	// plans, tailored and interaction classes combined. Zero or
	// negative means DefaultMaxInFlightSolves: a solve outlives the
	// callers that gave up on it, so the bound is never lifted.
	MaxInFlightSolves int
	// MaxLPDomainN bounds the domain size n accepted by the LP-backed
	// artifact methods (TailoredMechanism, OptimalInteraction, Compare
	// and their Ctx forms): larger n fails fast with ErrDomainTooLarge
	// before touching cache or solver. Zero or negative means
	// DefaultMaxLPDomainN.
	MaxLPDomainN int
	// Seed is the base seed for the sampler shards' PRNGs. Shard k
	// draws from splitmix64 stream (Seed, k), so a fixed seed gives a
	// reproducible *set* of streams (though goroutine scheduling still
	// decides which goroutine draws from which stream).
	Seed int64
	// Trace, when non-nil, receives a span event for every cache hit,
	// miss, coalesced join, solve start/finish, and shed rejection.
	// See TraceFunc for the contract.
	Trace TraceFunc
	// Store, when non-nil, backs the plans, tailored and compares
	// classes with the content-addressed disk store: in-memory misses
	// probe the store before computing, and successful computations
	// are written back, so a fresh engine pointed at a populated store
	// directory warm-boots every LP solution and release plan with
	// zero solves. Mechanisms and samplers are not persisted: decoding
	// G_{n,α} is no faster than building it, and a loaded alias table
	// could not be re-certified (see persist.go). The store is
	// strictly an accelerator: any load, verify, or write failure
	// degrades to normal computation (see internal/store and the
	// per-class Store* counters).
	Store *diskstore.Store
}

func (c Config) withDefaults() Config {
	if c.MaxInFlightSolves <= 0 {
		c.MaxInFlightSolves = DefaultMaxInFlightSolves
	}
	if c.MaxLPDomainN <= 0 {
		c.MaxLPDomainN = DefaultMaxLPDomainN
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Engine is a concurrency-safe, compute-once serving layer over the
// exact core. All methods are safe for concurrent use; construct one
// Engine per process (or per tenant) and share it, and Close it when
// done to stop its running computations.
type Engine struct {
	mechanisms   *store
	plans        *store
	tailored     *store
	interactions *store
	compares     *store

	stop       context.CancelFunc // cancels the root every computation runs under
	solves     *solveSem
	shards     *shardSet
	batchSizes batchHist
	trace      TraceFunc // nil = tracing off

	lp     lpCounters
	maxLPN int
}

// New builds an Engine from cfg (zero value fine; see Config).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	e := &Engine{
		mechanisms:   newStore("mechanisms", matrixCacheSize),
		plans:        newStore("plans", matrixCacheSize),
		tailored:     newStore("tailored", lpCacheSize),
		interactions: newStore("interactions", lpCacheSize),
		compares:     newStore("compares", lpCacheSize),
		stop:         stop,
		solves:       newSolveSem(cfg.MaxInFlightSolves),
		shards:       newShardSet(cfg.Seed),
		trace:        cfg.Trace,
		maxLPN:       cfg.MaxLPDomainN,
	}
	// Only the LP-backed classes and the release plans are expensive
	// enough to shed: a plan build runs one exact Lemma 3 transition
	// per adjacent level pair and takes seconds at moderate n, while
	// G_{n,α} computes in microseconds. The compares class carries no
	// semaphore of its own: its nested tailored and interaction solves
	// pass through those classes' sheddable stores, and
	// double-counting slots for the composite would deadlock a
	// saturated engine against itself.
	e.plans.sem = e.solves
	e.tailored.sem = e.solves
	e.interactions.sem = e.solves
	for _, s := range e.stores() {
		s.trace = cfg.Trace
		s.flight.root = root
	}
	if cfg.Store != nil {
		e.bindDisk(cfg.Store)
	}
	return e
}

func (e *Engine) stores() []*store {
	return []*store{e.mechanisms, e.plans, e.tailored, e.interactions, e.compares}
}

// Close cancels every running computation and waits for each to
// return. An LP solve stops at its next pivot; the float basis locate
// and a release-plan build have no checkpoint and run to their end
// (DESIGN §9 has the measured waits). Nothing Close cancels is cached.
// Afterwards the engine still serves cached artifacts, but a miss
// fails with context.Canceled. Close is idempotent.
func (e *Engine) Close() {
	e.stop()
	for _, s := range e.stores() {
		s.flight.closeAndWait()
	}
}

// getCached probes s for key on the allocation-free hit path; ok
// reports whether the artifact was served. Engine methods call this
// before building their compute closure — see store.lookup for why
// the probe and the compute must be separate statements.
func getCached[T any](ctx context.Context, s *store, key string) (T, bool, error) {
	v, ok, err := s.lookup(ctx, key)
	if err != nil || !ok {
		var zero T
		return zero, false, err
	}
	return v.(T), true, nil
}

// getTyped adapts the any-typed store's miss path to a concrete
// artifact type. Call only after getCached missed on the same key.
func getTyped[T any](ctx context.Context, s *store, key string, fn func(context.Context) (T, error)) (T, error) {
	v, err := s.compute(ctx, key, func(solveCtx context.Context) (any, error) { return fn(solveCtx) })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// --- cache keys -----------------------------------------------------------

// ratKey renders a rational for key use. big.Rat is always stored in
// lowest terms, so equal rationals render identically ("2/4" and
// "1/2" share a key).
func ratKey(a *big.Rat) string { return a.RatString() }

func checkRat(name string, a *big.Rat) error {
	if a == nil {
		return fmt.Errorf("engine: nil %s", name)
	}
	return nil
}

// The named key builders below are the single source of truth for
// each class's cache identity. They double as the disk store's
// content addresses (internal/store hashes class+key), so changing a
// builder orphans that class's persisted artifacts — harmless
// (orphans are never loaded; the store re-fills under the new keys)
// but worth knowing before renaming a field.

// geometricKey keys G_{n,α}; samplers over G carry it in their trace
// events.
func geometricKey(n int, alpha *big.Rat) string {
	return fmt.Sprintf("n=%d|a=%s", n, ratKey(alpha))
}

// planKey keys an Algorithm 1 release plan by its full α-ladder.
func planKey(n int, parts []string) string {
	return fmt.Sprintf("n=%d|a=%s", n, strings.Join(parts, ","))
}

// lpKey keys the LP-backed classes (tailored, interactions): the
// level parameters plus the consumer identity from consumerKey.
func lpKey(n int, alpha *big.Rat, ck string) string {
	return fmt.Sprintf("n=%d|a=%s|%s", n, ratKey(alpha), ck)
}

// consumerKey canonicalizes the cache-relevant identity of a consumer
// model on {0..n}. The Model implementations own the format
// (consumer.(*Consumer).Key, consumer.(*Bayesian).Key); for minimax
// consumers it is the historical "loss=…|side=…" string, so artifacts
// persisted before the Model unification keep their disk addresses.
func consumerKey(m consumer.Model, n int) (string, error) {
	if m == nil {
		return "", fmt.Errorf("engine: consumer with a loss function required")
	}
	return m.Key(n)
}

// --- LP solver plumbing ---------------------------------------------------

// lpOpts builds the default per-solve LP options with a fresh stats
// block for recordLP to fold into the engine-wide counters afterwards.
func lpOpts() (lp.SolveOpts, *lp.SolveStats) {
	stats := new(lp.SolveStats)
	return lp.SolveOpts{Stats: stats}, stats
}

// recordLP folds one solve's stats into the engine counters and emits
// the matching path trace event on the solving store. Pivot counters
// accumulate even for failed or canceled solves (the work was done);
// the path counters are mutually exclusive per solve, and the fallback
// counter means "warm start attempted and demoted". The tied-optimum
// counter is orthogonal to the path.
func (e *Engine) recordLP(s *store, key string, stats *lp.SolveStats) {
	e.lp.solves.Add(1)
	e.lp.floatPivots.Add(uint64(stats.FloatPivots))
	e.lp.floatNanos.Add(uint64(stats.FloatNanos))
	e.lp.exactPivots.Add(uint64(stats.ExactPivots))
	e.lp.revisedPivots.Add(uint64(stats.RevisedPivots))
	e.lp.smallOps.Add(uint64(stats.SmallOps))
	e.lp.bigFallbacks.Add(uint64(stats.BigFallbacks))
	e.lp.refactorizations.Add(uint64(stats.Refactorizations))
	e.lp.magnitudeRefacts.Add(uint64(stats.MagnitudeRefactors))
	if stats.TiedOptima {
		e.lp.tiedOptima.Add(1)
	}
	switch {
	case stats.WarmStartHit:
		e.lp.warmStartHits.Add(1)
		s.emit(TraceWarmStartHit, key)
	case stats.CrossoverResumed:
		e.lp.crossoverResumes.Add(1)
		s.emit(TraceWarmStartResume, key)
	case stats.Fallback:
		e.lp.fallbacks.Add(1)
		s.emit(TraceWarmStartFallback, key)
	}
}

// --- exact artifacts ------------------------------------------------------

// Geometric returns the (shared, immutable) geometric mechanism
// G_{n,α}, computing it at most once per (n, α). It is
// GeometricCtx(context.Background(), ...).
func (e *Engine) Geometric(n int, alpha *big.Rat) (*mechanism.Mechanism, error) {
	return e.GeometricCtx(context.Background(), n, alpha)
}

// GeometricCtx is Geometric under a context. Matrix construction is
// fast (no LP), so ctx is checked at entry and between coalesced
// waits but not inside the arithmetic.
func (e *Engine) GeometricCtx(ctx context.Context, n int, alpha *big.Rat) (*mechanism.Mechanism, error) {
	if err := checkRat("alpha", alpha); err != nil {
		return nil, err
	}
	key := geometricKey(n, alpha)
	if m, ok, err := getCached[*mechanism.Mechanism](ctx, e.mechanisms, key); ok || err != nil {
		return m, err
	}
	return getTyped(ctx, e.mechanisms, key, func(context.Context) (*mechanism.Mechanism, error) {
		return mechanism.Geometric(n, alpha)
	})
}

// ReleasePlan returns the (shared) Algorithm 1 release plan for the
// privacy levels α₁ < … < α_k, computing the cascade chain at most
// once per (n, levels). Plans expose no mutators and are safe to
// share between goroutines; sampling from a plan still requires a
// caller-owned PRNG. It is ReleasePlanCtx(context.Background(), ...).
func (e *Engine) ReleasePlan(n int, alphas []*big.Rat) (*release.Plan, error) {
	return e.ReleasePlanCtx(context.Background(), n, alphas)
}

// ReleasePlanCtx is ReleasePlan under a context.
func (e *Engine) ReleasePlanCtx(ctx context.Context, n int, alphas []*big.Rat) (*release.Plan, error) {
	parts := make([]string, len(alphas))
	for i, a := range alphas {
		if a == nil {
			return nil, fmt.Errorf("engine: nil level %d", i+1)
		}
		parts[i] = ratKey(a)
	}
	key := planKey(n, parts)
	if p, ok, err := getCached[*release.Plan](ctx, e.plans, key); ok || err != nil {
		return p, err
	}
	return getTyped(ctx, e.plans, key, func(context.Context) (*release.Plan, error) {
		return release.NewPlan(n, alphas)
	})
}

// checkLPDomain enforces the engine-side domain-size cap on the
// LP-backed routes (Config.MaxLPDomainN). It runs before the cache
// probe: a cap change must apply uniformly, not depend on what some
// earlier, larger-capped engine happened to leave in a shared store.
func (e *Engine) checkLPDomain(n int) error {
	if n > e.maxLPN {
		return fmt.Errorf("engine: n %d exceeds the LP domain cap %d: %w", n, e.maxLPN, ErrDomainTooLarge)
	}
	return nil
}

// TailoredMechanism solves (once per key) the tailored-optimum
// problem for consumer model m on {0..n}: the §2.5 LP for minimax
// consumers, the Ghosh-et-al. analogue for Bayesian ones. The
// returned Tailored is shared between callers and must be treated as
// read-only. It is TailoredCtx(context.Background(), ...).
func (e *Engine) TailoredMechanism(m consumer.Model, n int, alpha *big.Rat) (*consumer.Tailored, error) {
	return e.TailoredCtx(context.Background(), m, n, alpha)
}

// TailoredCtx is TailoredMechanism under a context. The context
// bounds only this caller's wait: when it ends, TailoredCtx returns
// ctx.Err(), and a solve already started runs on, is cached, and
// serves the retry (see the package doc). When the engine's
// in-flight solve bound is hit, the error wraps ErrSaturated.
func (e *Engine) TailoredCtx(ctx context.Context, m consumer.Model, n int, alpha *big.Rat) (*consumer.Tailored, error) {
	if err := checkRat("alpha", alpha); err != nil {
		return nil, err
	}
	ck, err := consumerKey(m, n)
	if err != nil {
		return nil, err
	}
	return e.modelTailoredCtx(ctx, m, ck, n, alpha)
}

// OptimalInteraction solves (once per key) the consumer model's
// optimal reaction to the deployed geometric mechanism G_{n,α}: the
// §2.4.3 post-processing LP for minimax consumers, the deterministic
// posterior remap for Bayesian ones. By Theorem 1 a minimax model's
// Loss here equals the tailored optimum, so a warm engine can answer
// "what does this consumer lose at level α?" from cache along either
// route. The returned Interaction is shared and must be treated as
// read-only. It is InteractionCtx(context.Background(), ...).
func (e *Engine) OptimalInteraction(m consumer.Model, n int, alpha *big.Rat) (*consumer.Interaction, error) {
	return e.InteractionCtx(context.Background(), m, n, alpha)
}

// InteractionCtx is OptimalInteraction under a context, with the same
// wait bound and load-shedding behavior as TailoredCtx.
func (e *Engine) InteractionCtx(ctx context.Context, m consumer.Model, n int, alpha *big.Rat) (*consumer.Interaction, error) {
	if err := checkRat("alpha", alpha); err != nil {
		return nil, err
	}
	ck, err := consumerKey(m, n)
	if err != nil {
		return nil, err
	}
	return e.modelInteractionCtx(ctx, m, ck, baseline.Spec{Kind: baseline.Geometric}, n, alpha)
}

// Metrics snapshots the engine's counters (see Metrics for the JSON
// shape).
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Mechanisms:        e.mechanisms.stats(),
		Plans:             e.plans.stats(),
		Tailored:          e.tailored.stats(),
		Interactions:      e.interactions.stats(),
		Compares:          e.compares.stats(),
		SamplerDraws:      e.shards.drawCount(),
		SamplerBatches:    e.shards.batchCount(),
		SamplerBatchSizes: e.batchSizes.snapshot(),
		InFlightSolves:    e.solves.inFlight(),
		LP:                e.lp.snapshot(),
	}
}
