package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/rational"
	diskstore "minimaxdp/internal/store"
)

// lpTrace counts, per artifact class, the LP solve paths reported,
// the cache misses and every event.
type lpTrace struct {
	mu                    sync.Mutex
	paths, misses, events map[string]int
}

func (r *lpTrace) hook(ev TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events == nil {
		r.paths, r.misses, r.events = map[string]int{}, map[string]int{}, map[string]int{}
	}
	r.events[ev.Artifact]++
	switch ev.Kind {
	case TraceMiss:
		r.misses[ev.Artifact]++
	case TraceWarmStartHit, TraceWarmStartResume, TraceWarmStartFallback:
		r.paths[ev.Artifact]++
	}
}

// count is the number of LP solve paths class reported.
func (r *lpTrace) count(class string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.paths[class]
}

// missesOf is the number of TraceMiss events class emitted.
func (r *lpTrace) missesOf(class string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.misses[class]
}

// eventsOf is the number of events of any kind class emitted.
func (r *lpTrace) eventsOf(class string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events[class]
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
// exactly one solve, in the tailored class: an interaction LP for
// minimax, the remap scan (no LP) for Bayesian; no §2.5 or Bayesian
// LP. The miss is one TraceMiss, on tailored, and the interactions
// class sees nothing. Keys whose bytes differ from the LP's canonical
// optimum are counted and logged; the losses are what the contract
// fixes.
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
			if met.LP.Solves != wantSolves || met.Tailored.Cache.Misses != 1 || tr.count("tailored") != int(wantSolves) {
				t.Errorf("%s: %d LP solves, %d tailored misses, %d tailored LP paths; want %d LP solves in the one tailored miss",
					name, met.LP.Solves, met.Tailored.Cache.Misses, tr.count("tailored"), wantSolves)
			}
			if tr.missesOf("tailored") != 1 || tr.eventsOf("interactions") != 0 || met.Interactions.Requests != 0 {
				t.Errorf("%s: %d tailored TraceMiss, %d interactions events, %d interactions requests; want 1, 0, 0",
					name, tr.missesOf("tailored"), tr.eventsOf("interactions"), met.Interactions.Requests)
			}
			if !got.Mechanism.Equal(want.Mechanism) {
				differ = append(differ, name)
			}
		}
	}
	t.Logf("%d of %d keys serve bytes other than the LP's canonical optimum (equal loss): %v", len(differ), keys, differ)
}

// TestTailoredOutsideTheoremOneFails: inputs outside Theorem 1's
// hypotheses — α = 1, where G_{n,α} is undefined, and a non-monotone
// loss.Table — are an error on the tailored and compare routes, one
// that points at consumer.OptimalMechanismCtx, which still solves
// them. Nothing is solved, cached or written to the store. A stored
// tailored entry or scorecard for such a key cannot bypass the check
// either: it runs before each class's disk probe.
func TestTailoredOutsideTheoremOneFails(t *testing.T) {
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
		want, err := consumer.OptimalMechanism(tc.c, n, tc.alpha)
		if err != nil {
			t.Fatalf("%s: the library LP fails too: %v", name, err)
		}
		db := openDisk(t, t.TempDir())
		mk, err := tc.c.Key(n)
		if err != nil {
			t.Fatal(err)
		}
		// A tailored entry and a default scorecard already on disk for
		// the key: a v3 store written when the engine solved these
		// inputs with the §2.5 LP.
		specs, err := baseline.Canonicalize(nil)
		if err != nil {
			t.Fatal(err)
		}
		card := &baseline.Comparison{N: n, Alpha: tc.alpha, Model: tc.c.ModelName(), TailoredLoss: want.Loss}
		for _, bs := range specs {
			card.Entries = append(card.Entries, baseline.Entry{Spec: bs.String(), Loss: want.Loss, InteractionLoss: want.Loss, Gap: rational.Zero(), BestAlpha: tc.alpha})
		}
		if err := db.Put("tailored", lpKey(n, tc.alpha, mk), diskstore.EncodeTailored(want)); err != nil {
			t.Fatal(err)
		}
		if err := db.Put("compares", compareKey(n, tc.alpha, mk, specs), diskstore.EncodeCompare(card)); err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, Config{Store: db})
		if _, err := e.TailoredCtx(context.Background(), tc.c, n, tc.alpha); err == nil || !strings.Contains(err.Error(), "consumer.OptimalMechanismCtx") {
			t.Errorf("%s: TailoredCtx err = %v, want one naming consumer.OptimalMechanismCtx", name, err)
		}
		if tc.alpha.Cmp(rational.One()) < 0 {
			if _, err := e.CompareCtx(context.Background(), CompareSpec{N: n, Alpha: tc.alpha, Model: tc.c}); err == nil || !strings.Contains(err.Error(), "consumer.OptimalMechanismCtx") {
				t.Errorf("%s: CompareCtx err = %v, want one naming consumer.OptimalMechanismCtx", name, err)
			}
		}
		e.Close()
		met := e.Metrics()
		if met.LP.Solves != 0 || met.Tailored.Cache.Size != 0 || met.Compares.Cache.Size != 0 || met.Interactions.Requests != 0 {
			t.Errorf("%s: %d LP solves, tailored cache %d, compares cache %d, %d interaction requests; want all 0",
				name, met.LP.Solves, met.Tailored.Cache.Size, met.Compares.Cache.Size, met.Interactions.Requests)
		}
		if met.Tailored.StoreHits != 0 || met.Compares.StoreHits != 0 || met.Tailored.StoreWrites != 0 || met.Compares.StoreWrites != 0 || db.Stats().Writes != 2 {
			t.Errorf("%s: store hits %d tailored, %d compares; writes %d tailored, %d compares, %d in the store; want 0, 0, 0, 0 and the seeded 2",
				name, met.Tailored.StoreHits, met.Compares.StoreHits, met.Tailored.StoreWrites, met.Compares.StoreWrites, db.Stats().Writes)
		}
	}
}

// TestTailoredStoreEntryPinned pins, for one minimax and one Bayesian
// key, the tailored class's store address (its lpKey) and the sha256
// of the stored payload, both recorded when the tailored miss still
// went through the interactions class. Equal keys and payloads mean a
// store directory written then (FormatVersion 3) warm-boots with zero
// solves.
func TestTailoredStoreEntryPinned(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		m       consumer.Model
		alpha   *big.Rat
		key     string
		payload string
	}{
		{
			&consumer.Consumer{Loss: loss.Absolute{}}, rational.New(1, 3),
			"n=6|a=1/3|loss=absolute|side=full",
			"14c761b6b96eb1140f37eed740d83acc8137b1008213c91b298472c05353807a",
		},
		{
			&consumer.Bayesian{Loss: loss.Absolute{}, Prior: consumer.UniformPrior(n)}, rational.New(1, 2),
			"n=6|a=1/2|bayes|loss=absolute|prior=1/7,1/7,1/7,1/7,1/7,1/7,1/7",
			"1b8b62e11f59f43955d429bfb3b954d8d5e3ddfccf60cb84181b2c88689e315f",
		},
	} {
		mk, err := tc.m.Key(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := lpKey(n, tc.alpha, mk); got != tc.key {
			t.Errorf("lpKey = %q, want %q", got, tc.key)
		}
		tl, err := newEngine(t, Config{}).TailoredMechanism(tc.m, n, tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(diskstore.EncodeTailored(tl))); got != tc.payload {
			t.Errorf("%s: payload sha256 %s, want %s", tc.key, got, tc.payload)
		}
	}
}

// TestTailoredAndCompareCoalesce: tailored and compare requests for
// one cold key, racing, share one solve. The compare's geometric row
// is the tailored artifact, so the interactions class is never asked.
func TestTailoredAndCompareCoalesce(t *testing.T) {
	const n, workers = 8, 8
	alpha := rational.New(1, 2)
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	e := newEngine(t, Config{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			if w%2 == 0 {
				_, err = e.TailoredCtx(context.Background(), c, n, alpha)
			} else {
				_, err = e.CompareCtx(context.Background(), CompareSpec{
					N: n, Alpha: alpha, Model: c,
					Baselines: []baseline.Spec{{Kind: baseline.Geometric}},
				})
			}
			errs <- err
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.LP.Solves != 1 || m.Tailored.Cache.Misses != 1 || m.Interactions.Requests != 0 {
		t.Errorf("%d LP solves, %d tailored misses, %d interaction requests; want 1, 1, 0",
			m.LP.Solves, m.Tailored.Cache.Misses, m.Interactions.Requests)
	}
}
