// Package tenant turns the single-survey serving story of cmd/dpserver
// into a multi-tenant one: a registry of isolated tenants, each
// carrying its own secret count, domain bound n, α-ladder, loss, and
// side-information set, its own correlated-epoch state (the current
// Algorithm 1 cascade draw behind an atomic pointer), and its own
// privacy accounting.
//
// Accounting follows the paper's composition rules exactly and in
// exact arithmetic. One cascade draw publishes every level of the
// ladder, but by Lemma 4 the coalition of all of a tenant's levels is
// protected at the weakest member's level α₁ — so one epoch advance
// spends α₁, not the product over levels. Draws across epochs are
// independent, so sequential composition (privacy.Compose) multiplies:
// after m epochs the cumulative guarantee is α₁^m. A tenant configured
// with a budget floor (MinAlpha) refuses the draw that would push the
// cumulative spend below the floor — remembering that smaller α means
// weaker privacy (α = e^{−ε}), "below the floor" is "more privacy
// consumed than allowed".
//
// The spend is never accumulated: after m epochs it is exactly α₁^m,
// so it is computed from the epoch count when it is read (Accounting)
// or checked against a floor. An unmetered tenant therefore does the
// same work on every advance, however many epochs it has drawn.
//
// Isolation is structural: a Tenant owns its PRNG and its epoch
// snapshots; nothing in this package is
// shared between tenants except the immutable exact artifacts they
// read through the engine, which are safe by construction.
package tenant

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"

	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
	"minimaxdp/internal/sample"
)

// MaxIDLength bounds tenant identifiers.
const MaxIDLength = 64

// ErrBudgetExhausted is returned by Advance when one more cascade
// draw would push the tenant's cumulative privacy spend below its
// configured MinAlpha floor. The tenant keeps serving its already
// published epochs; it just refuses to reveal more.
var ErrBudgetExhausted = errors.New("tenant: privacy budget exhausted")

// Config describes one tenant. All fields are copied by New; the
// caller's slices and rationals stay private to the caller.
type Config struct {
	// ID names the tenant in the registry and the HTTP surface:
	// 1..MaxIDLength chars from [a-z0-9-_].
	ID string
	// N is the tenant's domain bound (results lie in {0..N}).
	N int
	// Truth is the tenant's secret query result in [0, N]. It never
	// leaves the Tenant: releases go through Advance, which draws the
	// cascade internally.
	Truth int
	// Alphas is the tenant's privacy ladder: strictly increasing
	// levels within (0,1), least private first (the paper's α₁ < … <
	// α_k).
	Alphas []*big.Rat
	// Loss and LossWidth select the tenant's consumer loss for
	// tailored solves ("absolute", "squared", "zero-one",
	// "deadband"+width). The tenant stores them verbatim; the serving
	// layer interprets them.
	Loss      string
	LossWidth int
	// Side is the tenant's consumer side-information set (empty = full
	// domain).
	Side []int
	// MinAlpha, when non-nil, is the tenant's privacy budget floor in
	// (0,1): Advance refuses a draw that would take the cumulative
	// spent α (the Lemma 4 + sequential-composition product) strictly
	// below it. Nil means unmetered.
	MinAlpha *big.Rat
	// Seed seeds the tenant's private cascade PRNG.
	Seed int64
}

func checkID(id string) error {
	if id == "" || len(id) > MaxIDLength {
		return fmt.Errorf("tenant: id must be 1..%d chars, got %d", MaxIDLength, len(id))
	}
	for _, c := range id {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' && c != '_' {
			return fmt.Errorf("tenant: id %q contains %q (want [a-z0-9-_])", id, string(c))
		}
	}
	return nil
}

// Epoch is one published correlated release: every level's result
// comes from a single Algorithm 1 cascade draw. Immutable once
// published; read it through Tenant.Epoch without locking.
type Epoch struct {
	// Epoch counts from 1 (a registered tenant has always published at
	// least one draw).
	Epoch int
	// Results holds one released value per ladder level, least private
	// first. Read-only.
	Results []int
}

// result returns the released value at a 1-based level.
func (e *Epoch) result(level int) (int, error) {
	if e == nil || level < 1 || level > len(e.Results) {
		return 0, fmt.Errorf("tenant: level %d out of range", level)
	}
	return e.Results[level-1], nil
}

// Result returns the epoch's released value at a 1-based ladder level.
func (e *Epoch) Result(level int) (int, error) { return e.result(level) }

// Tenant is one isolated serving principal. The configuration is
// immutable after New; the mutable state is the epoch snapshot
// (atomic pointer, lock-free reads) and the PRNG (mutex, touched only
// by the rare Advance).
type Tenant struct {
	id        string
	ladder    *release.Ladder // n and the α-ladder; identifies the plan
	alpha1    *big.Rat        // α₁: what one epoch spends (Lemma 4)
	truth     int
	loss      string
	lossWidth int
	side      []int
	minAlpha  *big.Rat // nil = unmetered

	state atomic.Pointer[Epoch]

	mu  sync.Mutex // guards rng and serializes epoch advances
	rng *rand.Rand
}

// New validates cfg and builds a tenant with zero published epochs
// (the caller advances it once at registration, so a served tenant
// always has a current cascade).
func New(cfg Config) (*Tenant, error) {
	if err := checkID(cfg.ID); err != nil {
		return nil, err
	}
	ladder, err := release.NewLadder(cfg.N, cfg.Alphas)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", cfg.ID, err)
	}
	if cfg.Truth < 0 || cfg.Truth > cfg.N {
		return nil, fmt.Errorf("tenant %s: truth %d outside [0,%d]", cfg.ID, cfg.Truth, cfg.N)
	}
	one := rational.One()
	if cfg.MinAlpha != nil && (cfg.MinAlpha.Sign() <= 0 || cfg.MinAlpha.Cmp(one) >= 0) {
		return nil, fmt.Errorf("tenant %s: min alpha outside (0,1)", cfg.ID)
	}
	for _, i := range cfg.Side {
		if i < 0 || i > cfg.N {
			return nil, fmt.Errorf("tenant %s: side point %d outside [0,%d]", cfg.ID, i, cfg.N)
		}
	}
	t := &Tenant{
		id:        cfg.ID,
		ladder:    ladder,
		alpha1:    rational.Clone(cfg.Alphas[0]),
		truth:     cfg.Truth,
		loss:      cfg.Loss,
		lossWidth: cfg.LossWidth,
		side:      append([]int(nil), cfg.Side...),
		rng:       sample.NewRand(cfg.Seed),
	}
	if cfg.MinAlpha != nil {
		t.minAlpha = rational.Clone(cfg.MinAlpha)
	}
	return t, nil
}

// ID returns the tenant's identifier.
func (t *Tenant) ID() string { return t.id }

// N returns the tenant's domain bound.
func (t *Tenant) N() int { return t.ladder.N() }

// Levels returns the ladder length.
func (t *Tenant) Levels() int { return t.ladder.Levels() }

// Ladder returns the tenant's validated ladder (shared, immutable):
// its plan key and rendered α's.
func (t *Tenant) Ladder() *release.Ladder { return t.ladder }

// Alphas returns a deep copy of the tenant's ladder.
func (t *Tenant) Alphas() []*big.Rat { return t.ladder.Alphas() }

// Alpha returns a copy of the privacy parameter of a 1-based level.
func (t *Tenant) Alpha(level int) (*big.Rat, error) { return t.ladder.Alpha(level) }

// Loss returns the tenant's loss selector and deadband width.
func (t *Tenant) Loss() (name string, width int) { return t.loss, t.lossWidth }

// Side returns a copy of the tenant's side-information set.
func (t *Tenant) Side() []int { return append([]int(nil), t.side...) }

// Epoch returns the current published cascade, or nil before the
// first Advance. Lock-free.
func (t *Tenant) Epoch() *Epoch { return t.state.Load() }

// Advance draws one fresh Algorithm 1 cascade from plan and publishes
// it as the tenant's next epoch. The plan must match the tenant's
// geometry (it is built from the tenant's n and ladder by the serving
// layer; the check here keeps a routing bug from ever publishing
// another tenant's draw). Accounting happens first: if the draw would
// push the cumulative spent α below MinAlpha, Advance returns
// ErrBudgetExhausted and publishes nothing.
func (t *Tenant) Advance(plan *release.Plan) (*Epoch, error) {
	if plan == nil || plan.Ladder().Key() != t.ladder.Key() {
		return nil, fmt.Errorf("tenant %s: plan does not match tenant ladder %s", t.id, t.ladder.Key())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	epoch := t.epochs() + 1
	// Lemma 4: the full-ladder coalition of this draw is protected at
	// α₁; sequential composition across epochs multiplies.
	if t.minAlpha != nil {
		if next := rational.Pow(t.alpha1, epoch); next.Cmp(t.minAlpha) < 0 {
			return nil, fmt.Errorf("%w: spending α₁=%s again would take the cumulative guarantee to %s, below the floor %s",
				ErrBudgetExhausted, t.alpha1.RatString(), next.RatString(), t.minAlpha.RatString())
		}
	}
	out, err := plan.Release(t.truth, t.rng)
	if err != nil {
		return nil, err
	}
	e := &Epoch{Epoch: epoch, Results: out}
	t.state.Store(e)
	return e, nil
}

// epochs counts the published cascade draws.
func (t *Tenant) epochs() int {
	if e := t.state.Load(); e != nil {
		return e.Epoch
	}
	return 0
}

// Accounting is a point-in-time snapshot of a tenant's privacy spend.
// Rationals are exact and rendered by the serving layer; strings here
// would force a format choice on library users.
type Accounting struct {
	// Epochs counts published cascade draws.
	Epochs int
	// SpentAlpha is the cumulative guarantee consumed so far: α₁^Epochs
	// (1/1 before the first draw). Smaller means more privacy consumed.
	SpentAlpha *big.Rat
	// BudgetAlpha is the configured floor, or nil when unmetered.
	BudgetAlpha *big.Rat
	// NextDrawAllowed reports whether one more Advance would fit the
	// budget.
	NextDrawAllowed bool
}

// Accounting snapshots the tenant's privacy accounting.
func (t *Tenant) Accounting() Accounting {
	t.mu.Lock()
	defer t.mu.Unlock()
	epochs := t.epochs()
	a := Accounting{
		Epochs:          epochs,
		SpentAlpha:      rational.Pow(t.alpha1, epochs),
		NextDrawAllowed: true,
	}
	if t.minAlpha != nil {
		a.BudgetAlpha = rational.Clone(t.minAlpha)
		if rational.Mul(a.SpentAlpha, t.alpha1).Cmp(t.minAlpha) < 0 {
			a.NextDrawAllowed = false
		}
	}
	return a
}
