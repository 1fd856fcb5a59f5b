package tenant

import (
	"errors"
	"math/big"
	"sync"
	"testing"

	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
)

func ladder(strs ...string) []*big.Rat {
	out := make([]*big.Rat, len(strs))
	for i, s := range strs {
		out[i] = rational.MustParse(s)
	}
	return out
}

func testPlan(t testing.TB, n int, alphas []*big.Rat) *release.Plan {
	t.Helper()
	p, err := release.NewPlan(n, alphas)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	good := Config{ID: "acme", N: 8, Truth: 3, Alphas: ladder("1/4", "1/2")}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"empty id", func(c *Config) { c.ID = "" }},
		{"uppercase id", func(c *Config) { c.ID = "Acme" }},
		{"slash id", func(c *Config) { c.ID = "a/b" }},
		{"zero n", func(c *Config) { c.N = 0 }},
		{"truth below", func(c *Config) { c.Truth = -1 }},
		{"truth above", func(c *Config) { c.Truth = 9 }},
		{"no levels", func(c *Config) { c.Alphas = nil }},
		{"nil level", func(c *Config) { c.Alphas = []*big.Rat{nil} }},
		{"level at one", func(c *Config) { c.Alphas = ladder("1/4", "1") }},
		{"level at zero", func(c *Config) { c.Alphas = []*big.Rat{new(big.Rat)} }},
		{"non-increasing", func(c *Config) { c.Alphas = ladder("1/2", "1/2") }},
		{"decreasing", func(c *Config) { c.Alphas = ladder("1/2", "1/4") }},
		{"budget at one", func(c *Config) { c.MinAlpha = rational.One() }},
		{"budget zero", func(c *Config) { c.MinAlpha = new(big.Rat) }},
		{"side below", func(c *Config) { c.Side = []int{-1} }},
		{"side above", func(c *Config) { c.Side = []int{9} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestConfigCopied pins the isolation contract: mutating the caller's
// config after New must not reach into the tenant.
func TestConfigCopied(t *testing.T) {
	alphas := ladder("1/4", "1/2")
	side := []int{1, 2}
	min := rational.MustParse("1/1024")
	tn, err := New(Config{ID: "copy", N: 8, Truth: 3, Alphas: alphas, Side: side, MinAlpha: min})
	if err != nil {
		t.Fatal(err)
	}
	alphas[0].SetInt64(7)
	side[0] = 99
	min.SetInt64(7)
	if got, _ := tn.Alpha(1); got.RatString() != "1/4" {
		t.Errorf("alpha aliased caller memory: %s", got.RatString())
	}
	if got := tn.Side(); got[0] != 1 {
		t.Errorf("side aliased caller memory: %v", got)
	}
	if acc := tn.Accounting(); acc.BudgetAlpha.RatString() != "1/1024" {
		t.Errorf("budget aliased caller memory: %s", acc.BudgetAlpha.RatString())
	}
	// And the reverse: accessors hand out copies, not internals.
	tn.Alphas()[0].SetInt64(9)
	tn.Accounting().SpentAlpha.SetInt64(9)
	if got, _ := tn.Alpha(1); got.RatString() != "1/4" {
		t.Errorf("Alphas leaked internals: %s", got.RatString())
	}
}

func TestAdvanceAndAccounting(t *testing.T) {
	alphas := ladder("1/4", "1/2")
	tn, err := New(Config{ID: "t1", N: 10, Truth: 7, Alphas: alphas, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if tn.Epoch() != nil {
		t.Fatal("fresh tenant has an epoch")
	}
	acc := tn.Accounting()
	if acc.Epochs != 0 || acc.SpentAlpha.RatString() != "1" || !acc.NextDrawAllowed {
		t.Fatalf("fresh accounting = %+v", acc)
	}
	plan := testPlan(t, 10, alphas)
	for i := 1; i <= 3; i++ {
		e, err := tn.Advance(plan)
		if err != nil {
			t.Fatal(err)
		}
		if e.Epoch != i || len(e.Results) != 2 {
			t.Fatalf("epoch %d = %+v", i, e)
		}
		for lvl := 1; lvl <= 2; lvl++ {
			r, err := e.Result(lvl)
			if err != nil || r < 0 || r > 10 {
				t.Fatalf("epoch %d level %d result %d, %v", i, lvl, r, err)
			}
		}
	}
	// Lemma 4 + sequential composition: 3 epochs spend α₁³ = 1/64
	// exactly, regardless of ladder length.
	acc = tn.Accounting()
	if acc.Epochs != 3 || acc.SpentAlpha.RatString() != "1/64" {
		t.Fatalf("after 3 epochs accounting = %+v (spent %s)", acc, acc.SpentAlpha.RatString())
	}
	if acc.BudgetAlpha != nil || !acc.NextDrawAllowed {
		t.Fatalf("unmetered tenant accounting = %+v", acc)
	}
}

// TestUnmeteredAccountingAfterManyEpochs: the spend is computed from
// the epoch count, not carried as a running product, so an unmetered
// tenant advanced many times with a non-unit numerator α₁ still
// reports exactly α₁^epochs.
func TestUnmeteredAccountingAfterManyEpochs(t *testing.T) {
	alphas := ladder("2/3", "3/4")
	tn, err := New(Config{ID: "long", N: 2, Truth: 1, Alphas: alphas, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plan := testPlan(t, 2, alphas)
	const epochs = 500
	for i := 0; i < epochs; i++ {
		if _, err := tn.Advance(plan); err != nil {
			t.Fatal(err)
		}
	}
	want := new(big.Rat).SetFrac(
		new(big.Int).Exp(big.NewInt(2), big.NewInt(epochs), nil),
		new(big.Int).Exp(big.NewInt(3), big.NewInt(epochs), nil))
	acc := tn.Accounting()
	if acc.Epochs != epochs || acc.SpentAlpha.Cmp(want) != 0 {
		t.Fatalf("after %d epochs: epochs %d, spent %s, want (2/3)^%d", epochs, acc.Epochs, acc.SpentAlpha.RatString(), epochs)
	}
	if acc.BudgetAlpha != nil || !acc.NextDrawAllowed {
		t.Fatalf("unmetered tenant accounting = %+v", acc)
	}
}

func TestAdvanceGeometryMismatch(t *testing.T) {
	tn, err := New(Config{ID: "t1", N: 8, Truth: 3, Alphas: ladder("1/4", "1/2")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Advance(nil); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := tn.Advance(testPlan(t, 9, ladder("1/4", "1/2"))); err == nil {
		t.Error("wrong-n plan accepted")
	}
	if _, err := tn.Advance(testPlan(t, 8, ladder("1/4"))); err == nil {
		t.Error("wrong-level-count plan accepted")
	}
	if _, err := tn.Advance(testPlan(t, 8, ladder("1/3", "1/2"))); err == nil {
		t.Error("wrong-ladder plan accepted")
	}
	if e := tn.Epoch(); e != nil {
		t.Errorf("rejected advances published an epoch: %+v", e)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	alphas := ladder("1/2", "3/4")
	// Floor 1/8 allows exactly three α₁ = 1/2 draws (1/2, 1/4, 1/8);
	// the fourth would land at 1/16 < 1/8.
	tn, err := New(Config{ID: "metered", N: 6, Truth: 2, Alphas: alphas,
		MinAlpha: rational.MustParse("1/8"), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plan := testPlan(t, 6, alphas)
	for i := 1; i <= 3; i++ {
		if _, err := tn.Advance(plan); err != nil {
			t.Fatalf("draw %d within budget refused: %v", i, err)
		}
	}
	acc := tn.Accounting()
	if acc.SpentAlpha.RatString() != "1/8" || acc.NextDrawAllowed {
		t.Fatalf("at the floor: %+v (spent %s)", acc, acc.SpentAlpha.RatString())
	}
	if _, err := tn.Advance(plan); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget draw: err = %v, want ErrBudgetExhausted", err)
	}
	// The refused draw must not have mutated anything.
	acc = tn.Accounting()
	if acc.Epochs != 3 || acc.SpentAlpha.RatString() != "1/8" {
		t.Fatalf("refused draw mutated accounting: %+v", acc)
	}
	if e := tn.Epoch(); e.Epoch != 3 {
		t.Fatalf("refused draw published epoch %d", e.Epoch)
	}
}

func TestEpochResultBounds(t *testing.T) {
	var nilEpoch *Epoch
	if _, err := nilEpoch.Result(1); err == nil {
		t.Error("nil epoch result accepted")
	}
	e := &Epoch{Epoch: 1, Results: []int{4, 2}}
	for _, lvl := range []int{0, 3, -1} {
		if _, err := e.Result(lvl); err == nil {
			t.Errorf("level %d accepted", lvl)
		}
	}
	if r, err := e.Result(2); err != nil || r != 2 {
		t.Errorf("Result(2) = %d, %v", r, err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(nil); err == nil {
		t.Error("nil tenant registered")
	}
	mk := func(id string) *Tenant {
		tn, err := New(Config{ID: id, N: 4, Truth: 1, Alphas: ladder("1/2")})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	for _, id := range []string{"beta", "alpha"} {
		if err := r.Add(mk(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Add(mk("alpha")); err == nil {
		t.Error("duplicate id registered")
	}
	if got := r.IDs(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Errorf("IDs = %v", got)
	}
	if tn, ok := r.Get("beta"); !ok || tn.ID() != "beta" {
		t.Errorf("Get(beta) = %v, %v", tn, ok)
	}
	if _, ok := r.Get("gamma"); ok {
		t.Error("phantom tenant found")
	}
	if !r.Delete("beta") || r.Delete("beta") {
		t.Error("Delete semantics wrong")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

// TestTenantIsolationConcurrent is the package-level isolation proof:
// three tenants with different geometries advanced and read
// concurrently (run under -race in CI). Each tenant's draws must stay
// within its own domain, its accounting must equal its own α₁^epochs
// exactly, and epoch numbering must be gapless per tenant.
func TestTenantIsolationConcurrent(t *testing.T) {
	type fixture struct {
		tn   *Tenant
		plan *release.Plan
		n    int
		a1   string
	}
	reg := NewRegistry()
	var fixtures []fixture
	for _, cfg := range []struct {
		id string
		n  int
		ls []string
	}{
		{"small", 4, []string{"1/3", "1/2"}},
		{"wide", 16, []string{"1/5", "1/3", "1/2"}},
		{"single", 9, []string{"2/5"}},
	} {
		tn, err := New(Config{ID: cfg.id, N: cfg.n, Truth: cfg.n / 2,
			Alphas: ladder(cfg.ls...), Seed: int64(cfg.n)})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(tn); err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{tn, testPlan(t, cfg.n, ladder(cfg.ls...)), cfg.n, cfg.ls[0]})
	}
	const advances = 20
	var wg sync.WaitGroup
	for _, f := range fixtures {
		f := f
		wg.Add(2)
		// Writer: advances epochs.
		go func() {
			defer wg.Done()
			for i := 0; i < advances; i++ {
				e, err := f.tn.Advance(f.plan)
				if err != nil {
					t.Errorf("%s advance: %v", f.tn.ID(), err)
					return
				}
				for _, r := range e.Results {
					if r < 0 || r > f.n {
						t.Errorf("%s: draw %d outside its own domain [0,%d]", f.tn.ID(), r, f.n)
					}
				}
			}
		}()
		// Reader: lock-free epoch reads plus accounting snapshots.
		go func() {
			defer wg.Done()
			last := 0
			for i := 0; i < advances*10; i++ {
				if e := f.tn.Epoch(); e != nil {
					if e.Epoch < last {
						t.Errorf("%s: epoch went backwards %d -> %d", f.tn.ID(), last, e.Epoch)
					}
					last = e.Epoch
					if len(e.Results) != f.tn.Levels() {
						t.Errorf("%s: epoch has %d results, want %d", f.tn.ID(), len(e.Results), f.tn.Levels())
					}
				}
				_ = f.tn.Accounting()
			}
		}()
	}
	wg.Wait()
	// Exact post-condition per tenant: spent == α₁^advances.
	for _, f := range fixtures {
		acc := f.tn.Accounting()
		if acc.Epochs != advances {
			t.Errorf("%s: epochs = %d, want %d", f.tn.ID(), acc.Epochs, advances)
		}
		want := new(big.Rat).SetInt64(1)
		a1 := rational.MustParse(f.a1)
		for i := 0; i < advances; i++ {
			want.Mul(want, a1)
		}
		if acc.SpentAlpha.Cmp(want) != 0 {
			t.Errorf("%s: spent = %s, want %s (cross-tenant accounting contamination?)",
				f.tn.ID(), acc.SpentAlpha.RatString(), want.RatString())
		}
	}
}
