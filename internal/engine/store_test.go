package engine

import (
	"context"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
	diskstore "minimaxdp/internal/store"
)

func openDisk(t testing.TB, dir string) *diskstore.Store {
	t.Helper()
	db, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// warmed holds a value from every persisted artifact class, plus G and
// draws from a sampler over it, so cold and warm boots can be
// compared exactly.
type warmed struct {
	tailoredLoss *big.Rat
	geomProb     *big.Rat
	planFirst    *big.Rat
	transProb    *big.Rat
	compareGap   *big.Rat
	draws        []int
}

// driveArtifacts requests every artifact in warmed through e.
func driveArtifacts(t testing.TB, e *Engine) warmed {
	t.Helper()
	a, b := rational.MustParse("1/3"), rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	tl, err := e.TailoredMechanism(c, 6, a)
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Geometric(6, a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.ReleasePlan(6, []*big.Rat{a, b})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Transition(1)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := p.Marginal(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Sampler(context.Background(), SamplerSpec{N: 6, Alpha: a})
	if err != nil {
		t.Fatal(err)
	}
	// Geometric-only baseline set: the compare shares the tailored
	// solve above and adds exactly one interaction solve, keeping the
	// cold drive fast while still exercising the persisted class.
	cmp, err := e.Compare(CompareSpec{
		N: 6, Alpha: a, Model: c,
		Baselines: []baseline.Spec{{Kind: baseline.Geometric}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return warmed{
		tailoredLoss: tl.Loss,
		geomProb:     g.Prob(3, 3),
		planFirst:    m1.Prob(0, 0),
		transProb:    tr.At(2, 2),
		compareGap:   cmp.Entries[0].Gap,
		draws:        s.SampleN(3, 32),
	}
}

// TestEngineWarmBoot solves every persisted artifact class against an
// empty store, then boots a fresh engine on the same directory and
// re-requests everything, a release plan included. The warm engine
// must do ZERO LP solves and serve byte-exact rationals.
func TestEngineWarmBoot(t *testing.T) {
	dir := t.TempDir()

	cold := newEngine(t, Config{Seed: 1, Store: openDisk(t, dir)})
	want := driveArtifacts(t, cold)
	cold.Close() // the store writes land behind the responses; Close drains them
	cm := cold.Metrics()
	if cm.LP.Solves == 0 {
		t.Fatal("cold boot did no LP solves — test premise broken")
	}
	if cm.Tailored.StoreWrites != 1 || cm.Compares.StoreWrites != 1 {
		t.Errorf("store writes: tailored %d, compares %d; want 1 each",
			cm.Tailored.StoreWrites, cm.Compares.StoreWrites)
	}
	// Mechanisms, plans and samplers are never persisted: G and a
	// plan are rebuilt from their O(n) distinct entries on every boot,
	// and a sampler is a view of G's exact rows.
	for _, class := range []string{"mechanisms", "plans", "samplers"} {
		if _, err := os.Stat(filepath.Join(dir, class)); !os.IsNotExist(err) {
			t.Errorf("store has a %s class directory (stat err %v)", class, err)
		}
	}
	if cm.Mechanisms.StoreWrites != 0 || cm.Plans.StoreWrites != 0 {
		t.Errorf("store writes: mechanisms %d, plans %d; want 0",
			cm.Mechanisms.StoreWrites, cm.Plans.StoreWrites)
	}

	warm := newEngine(t, Config{Seed: 1, Store: openDisk(t, dir)})
	got := driveArtifacts(t, warm)
	wm := warm.Metrics()
	if wm.LP.Solves != 0 {
		t.Errorf("warm boot did %d LP solves, want 0", wm.LP.Solves)
	}
	if wm.Tailored.StoreHits != 1 || wm.Compares.StoreHits != 1 {
		t.Errorf("store hits: tailored %d, compares %d; want 1 each",
			wm.Tailored.StoreHits, wm.Compares.StoreHits)
	}
	// The plan is rebuilt, not loaded; a plan build is not an LP solve.
	if wm.Plans.StoreHits != 0 || wm.Plans.Cache.Misses != 1 || wm.Plans.ComputeNanos == 0 {
		t.Errorf("plans: %d store hits, %d misses, %d ns computing; want one rebuild",
			wm.Plans.StoreHits, wm.Plans.Cache.Misses, wm.Plans.ComputeNanos)
	}
	for _, cmp := range []struct {
		name       string
		cold, warm *big.Rat
	}{
		{"tailored loss", want.tailoredLoss, got.tailoredLoss},
		{"geometric prob", want.geomProb, got.geomProb},
		{"plan marginal", want.planFirst, got.planFirst},
		{"transition prob", want.transProb, got.transProb},
		{"compare gap", want.compareGap, got.compareGap},
	} {
		if cmp.cold.Cmp(cmp.warm) != 0 {
			t.Errorf("%s: cold %s != warm %s", cmp.name, cmp.cold.RatString(), cmp.warm.RatString())
		}
	}
	// Same seed, same stream, and tables rebuilt from the same
	// exact rows (the construction is deterministic): draw-for-draw
	// equal.
	for i := range want.draws {
		if want.draws[i] != got.draws[i] {
			t.Errorf("draw %d: cold %d != warm %d (sampler not faithfully rebuilt)",
				i, want.draws[i], got.draws[i])
		}
	}
}

// TestEngineStoreCorruptFallback flips bytes in every stored entry
// and warm-boots: the engine must fall back to solving (correct
// results, nonzero solves), never crash, and the store must
// quarantine, not serve, the damage.
func TestEngineStoreCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	cold := newEngine(t, Config{Seed: 1, Store: openDisk(t, dir)})
	want := driveArtifacts(t, cold)
	cold.Close() // drain the write-behind before touching the files

	var corrupted int
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".art") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		corrupted++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no entries to corrupt")
	}

	db := openDisk(t, dir)
	warm := newEngine(t, Config{Seed: 1, Store: db})
	got := driveArtifacts(t, warm)
	if got.tailoredLoss.Cmp(want.tailoredLoss) != 0 {
		t.Errorf("fallback solve got loss %s, want %s",
			got.tailoredLoss.RatString(), want.tailoredLoss.RatString())
	}
	if wm := warm.Metrics(); wm.LP.Solves == 0 {
		t.Error("corrupt store but zero solves — corrupt entries were served?")
	}
	if st := db.Stats(); st.Corrupt != uint64(corrupted) {
		t.Errorf("quarantined %d entries, corrupted %d", st.Corrupt, corrupted)
	}
	warm.Close() // drain the repairing write-backs
	// The write-back repaired the store: a third boot is warm again.
	repaired := newEngine(t, Config{Seed: 1, Store: openDisk(t, dir)})
	driveArtifacts(t, repaired)
	if rm := repaired.Metrics(); rm.LP.Solves != 0 {
		t.Errorf("store not repaired by write-back: %d solves on third boot", rm.LP.Solves)
	}
}

// TestEngineStaleVersionResolves boots against a store written under
// format version 1, holding the tailored artifact for a tied key
// (zero-one loss, n=6, α=1/2) as the version-1 solver chose it: a
// different vertex of the tied optimal face than the canonical one.
// The stale entry must be a plain miss — re-solved, neither served nor
// counted as corruption — and the write-back must replace it with the
// canonical bytes, which a third boot then serves with zero solves.
func TestEngineStaleVersionResolves(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "v1store")
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &consumer.Consumer{Loss: loss.ZeroOne{}}
	alpha := rational.MustParse("1/2")
	fresh, err := newEngine(t, Config{}).TailoredMechanism(c, 6, alpha)
	if err != nil {
		t.Fatal(err)
	}

	db := openDisk(t, dir)
	boot := newEngine(t, Config{Store: db})
	got, err := boot.TailoredMechanism(c, 6, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mechanism.Equal(fresh.Mechanism) || got.Loss.Cmp(fresh.Loss) != 0 {
		t.Fatal("stale version-1 artifact served instead of the canonical optimum")
	}
	boot.Close() // drain the write-back
	if m := boot.Metrics(); m.LP.Solves != 1 || m.LP.TiedOptima != 1 || m.Tailored.StoreHits != 0 {
		t.Errorf("boot over a version-1 store: LP %+v, tailored %+v; want one tied solve, no store hit", m.LP, m.Tailored)
	}
	if st := db.Stats(); st.Corrupt != 0 || st.Writes != 1 {
		t.Errorf("store stats = %+v, want a plain miss (Corrupt 0) and one write-back", st)
	}

	warm := newEngine(t, Config{Store: openDisk(t, dir)})
	again, err := warm.TailoredMechanism(c, 6, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Mechanism.Equal(fresh.Mechanism) {
		t.Fatal("re-written entry does not hold the canonical optimum")
	}
	if m := warm.Metrics(); m.LP.Solves != 0 {
		t.Errorf("third boot ran %d solves, want 0: the write-back did not replace the stale entry", m.LP.Solves)
	}
}

// TestEngineNoStoreUnchanged pins that a store-less engine still
// works and reports zeroed store counters (the nil-binding path).
func TestEngineNoStoreUnchanged(t *testing.T) {
	e := newEngine(t, Config{Seed: 1})
	driveArtifacts(t, e)
	m := e.Metrics()
	if m.Tailored.StoreHits != 0 || m.Tailored.StoreWrites != 0 || m.Tailored.StoreErrors != 0 {
		t.Errorf("store counters nonzero without a store: %+v", m.Tailored)
	}
	if m.LP.Solves == 0 {
		t.Error("LP solve counter not incremented")
	}
}

// BenchmarkStoreWarmBoot quantifies the warm-boot win: loading a
// tailored mechanism from the artifact store vs re-solving it (the
// interaction LP against G_{n,α}). Each iteration boots a fresh engine
// so the in-memory cache never short-circuits the path under test.
func BenchmarkStoreWarmBoot(b *testing.B) {
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	const n = 8

	b.Run("cold-solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := New(Config{})
			if _, err := e.TailoredMechanism(c, n, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store-load", func(b *testing.B) {
		dir := b.TempDir()
		seed := New(Config{Store: openDisk(b, dir)})
		if _, err := seed.TailoredMechanism(c, n, a); err != nil {
			b.Fatal(err)
		}
		seed.Close() // the write lands behind the response; Close drains it
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := New(Config{Store: openDisk(b, dir)})
			_, err := e.TailoredMechanism(c, n, a)
			e.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
