package engine

import (
	"math/big"
	"sync"
	"testing"
	"time"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

func rat(t testing.TB, s string) *big.Rat {
	t.Helper()
	return rational.MustParse(s)
}

func TestGeometricCachedAndShared(t *testing.T) {
	e := newEngine(t, Config{})
	a := rat(t, "1/2")
	g1, err := e.Geometric(8, a)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e.Geometric(8, a)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("second Geometric call did not return the cached instance")
	}
	// Non-lowest-terms alpha hits the same key.
	g3, err := e.Geometric(8, rat(t, "2/4"))
	if err != nil {
		t.Fatal(err)
	}
	if g3 != g1 {
		t.Error("2/4 and 1/2 should share a cache entry")
	}
	direct, err := mechanism.Geometric(8, a)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(direct) {
		t.Error("cached mechanism differs from direct construction")
	}
	m := e.Metrics()
	if m.Mechanisms.Requests != 3 || m.Mechanisms.Cache.Hits != 2 || m.Mechanisms.Cache.Misses != 1 {
		t.Errorf("mechanism stats = %+v", m.Mechanisms)
	}
}

func TestTailoredMatchesDirectSolve(t *testing.T) {
	e := newEngine(t, Config{})
	a := rat(t, "1/3")
	c := &consumer.Consumer{Loss: loss.Absolute{}, Side: consumer.Interval(0, 6)}
	got, err := e.TailoredMechanism(c, 6, a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := consumer.OptimalMechanism(c, 6, a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss.Cmp(want.Loss) != 0 {
		t.Errorf("cached tailored loss %s, direct %s", got.Loss.RatString(), want.Loss.RatString())
	}
	// Theorem 1 through the engine: the cached interaction against
	// cached G_{n,α} achieves the same loss.
	inter, err := e.OptimalInteraction(c, 6, a)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Loss.Cmp(want.Loss) != 0 {
		t.Errorf("interaction loss %s, tailored %s", inter.Loss.RatString(), want.Loss.RatString())
	}
}

func TestConsumerKeyCanonicalization(t *testing.T) {
	e := newEngine(t, Config{})
	a := rat(t, "1/2")
	// Side sets that normalize identically must share a cache entry.
	c1 := &consumer.Consumer{Loss: loss.Absolute{}, Side: []int{3, 1, 2, 1, 99}}
	c2 := &consumer.Consumer{Loss: loss.Absolute{}, Side: []int{1, 2, 3}, Name: "other display name"}
	if _, err := e.TailoredMechanism(c1, 5, a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TailoredMechanism(c2, 5, a); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Tailored.Cache.Misses != 1 || m.Tailored.Cache.Hits != 1 {
		t.Errorf("tailored stats = %+v (want one miss, one hit)", m.Tailored)
	}
	// A consumer without a loss is rejected, not cached.
	if _, err := e.TailoredMechanism(&consumer.Consumer{}, 5, a); err == nil {
		t.Error("nil loss accepted")
	}
	if _, err := e.TailoredMechanism(nil, 5, a); err == nil {
		t.Error("nil consumer accepted")
	}
}

func TestCoalescingCollapsesConcurrentSolves(t *testing.T) {
	e := newEngine(t, Config{})
	a := rat(t, "1/2")
	c := &consumer.Consumer{Loss: loss.Squared{}}
	const workers = 32
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	losses := make([]*big.Rat, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			tl, err := e.TailoredMechanism(c, 8, a)
			if err != nil {
				errs[w] = err
				return
			}
			losses[w] = tl.Loss
		}(w)
	}
	start.Done()
	done.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if losses[w].Cmp(losses[0]) != 0 {
			t.Fatalf("worker %d saw loss %s, worker 0 saw %s", w, losses[w].RatString(), losses[0].RatString())
		}
	}
	m := e.Metrics()
	if m.Tailored.Cache.Misses != 1 {
		t.Errorf("misses = %d, want 1 (coalescer must collapse duplicate concurrent solves)", m.Tailored.Cache.Misses)
	}
	if m.Tailored.Requests != workers {
		t.Errorf("requests = %d, want %d", m.Tailored.Requests, workers)
	}
	if got := m.Tailored.Cache.Hits + m.Tailored.Cache.Coalesced; got != workers-1 {
		t.Errorf("hits+coalesced = %d, want %d", got, workers-1)
	}
	if m.Tailored.ComputeNanos == 0 {
		t.Error("compute_nanos not recorded")
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	e := newEngine(t, Config{})
	e.mechanisms = newStore("mechanisms", 2)
	a1, a2, a3 := rat(t, "1/2"), rat(t, "1/3"), rat(t, "1/4")
	for _, a := range []*big.Rat{a1, a2, a3} {
		if _, err := e.Geometric(4, a); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.Mechanisms.Cache.Evictions != 1 || m.Mechanisms.Cache.Size != 2 {
		t.Fatalf("after overflow: %+v", m.Mechanisms.Cache)
	}
	// a1 was least recently used and must be gone; a2/a3 must hit.
	if _, err := e.Geometric(4, a2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Geometric(4, a3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Geometric(4, a1); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.Mechanisms.Cache.Hits != 2 {
		t.Errorf("hits = %d, want 2 (a2 and a3 retained)", m.Mechanisms.Cache.Hits)
	}
	if m.Mechanisms.Cache.Misses != 4 {
		t.Errorf("misses = %d, want 4 (a1 evicted and recomputed)", m.Mechanisms.Cache.Misses)
	}
}

func TestReleasePlanCached(t *testing.T) {
	e := newEngine(t, Config{})
	alphas := []*big.Rat{rat(t, "1/2"), rat(t, "2/3")}
	p1, err := e.ReleasePlan(10, alphas)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.ReleasePlan(10, alphas)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("release plan not cached")
	}
	if _, err := e.ReleasePlan(10, []*big.Rat{rat(t, "2/3"), rat(t, "1/2")}); err == nil {
		t.Error("decreasing levels accepted")
	}
}

func TestEngineErrorsNotCached(t *testing.T) {
	e := newEngine(t, Config{})
	if _, err := e.Geometric(0, rat(t, "1/2")); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := e.Geometric(0, rat(t, "1/2")); err == nil {
		t.Fatal("n=0 accepted on retry")
	}
	m := e.Metrics()
	if m.Mechanisms.Cache.Size != 0 {
		t.Errorf("error outcome was cached: %+v", m.Mechanisms.Cache)
	}
	if m.Mechanisms.Cache.Misses != 2 {
		t.Errorf("misses = %d, want 2 (each failed request recomputes)", m.Mechanisms.Cache.Misses)
	}
	if _, err := e.Geometric(4, nil); err == nil {
		t.Fatal("nil alpha accepted")
	}
}

// TestEngineCachedSpeedup backs the PR's headline claim: a warm
// engine answers repeat tailored-LP requests at least 10x faster
// than solving the LP. The real ratio is 4–6 orders of magnitude
// (nanoseconds vs milliseconds), so 10x leaves enormous slack for
// noisy CI machines.
func TestEngineCachedSpeedup(t *testing.T) {
	e := newEngine(t, Config{})
	a := rat(t, "1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}

	uncachedStart := time.Now()
	if _, err := consumer.OptimalMechanism(c, 8, a); err != nil {
		t.Fatal(err)
	}
	uncached := time.Since(uncachedStart)

	if _, err := e.TailoredMechanism(c, 8, a); err != nil { // warm the cache
		t.Fatal(err)
	}
	const lookups = 1000
	cachedStart := time.Now()
	for i := 0; i < lookups; i++ {
		if _, err := e.TailoredMechanism(c, 8, a); err != nil {
			t.Fatal(err)
		}
	}
	cachedPerOp := time.Since(cachedStart) / lookups

	if cachedPerOp <= 0 {
		cachedPerOp = 1
	}
	if ratio := float64(uncached) / float64(cachedPerOp); ratio < 10 {
		t.Errorf("cached lookup only %.1fx faster than LP solve (uncached %v, cached %v); want ≥10x",
			ratio, uncached, cachedPerOp)
	}
}
