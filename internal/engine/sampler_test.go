package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"minimaxdp/internal/rational"
	"minimaxdp/internal/sample"
)

func TestGeometricSamplerDistribution(t *testing.T) {
	e := newEngine(t, Config{Seed: 7})
	a := rational.MustParse("1/2")
	s, err := e.Sampler(context.Background(), SamplerSpec{N: 8, Alpha: a})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	const trials = 50000
	counts := make([]int, 9)
	for _, r := range s.SampleN(4, trials) {
		counts[r]++
	}
	pmf := sample.EmpiricalPMF(counts)
	g, err := e.Geometric(8, a)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 8; r++ {
		want := rational.Float(g.Prob(4, r))
		if math.Abs(pmf[r]-want) > 0.01 {
			t.Errorf("Pr[release %d] = %.4f, want %.4f ± 0.01", r, pmf[r], want)
		}
	}
	if got := e.Metrics().SamplerDraws; got != trials {
		t.Errorf("sampler draws = %d, want %d", got, trials)
	}
}

// TestSamplerCachedPerKey: a geometric sampler is a view of the cached
// G_{n,α}. Two samplers for one (n, α) draw from G's own alias tables,
// pointer for pointer, and G is computed once.
func TestSamplerCachedPerKey(t *testing.T) {
	e := newEngine(t, Config{})
	a := rational.MustParse("1/3")
	s1, err := e.Sampler(context.Background(), SamplerSpec{N: 6, Alpha: a})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Sampler(context.Background(), SamplerSpec{N: 6, Alpha: a})
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Geometric(6, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 6; i++ {
		if s1.m.AliasRow(i) != g.AliasRow(i) || s2.m.AliasRow(i) != g.AliasRow(i) {
			t.Fatalf("row %d: sampler table is not the cached G's AliasRow", i)
		}
	}
	if m := e.Metrics().Mechanisms.Cache; m.Misses != 1 || m.Hits != 2 {
		t.Errorf("mechanisms cache = %+v, want G computed once and hit twice", m)
	}
}

func TestSamplerConcurrentDraws(t *testing.T) {
	e := newEngine(t, Config{Seed: 3})
	s, err := e.Sampler(context.Background(), SamplerSpec{N: 10, Alpha: rational.MustParse("2/3")})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				r := s.Sample(w % 11)
				if r < 0 || r > 10 {
					t.Errorf("draw %d out of range", r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := e.Metrics().SamplerDraws; got != workers*perWorker {
		t.Errorf("draws = %d, want %d", got, workers*perWorker)
	}
}

func TestSamplerBoundsPanics(t *testing.T) {
	e := newEngine(t, Config{})
	s, err := e.Sampler(context.Background(), SamplerSpec{N: 4, Alpha: rational.MustParse("1/2")})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample(%d) did not panic", bad)
				}
			}()
			s.Sample(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative count did not panic")
			}
		}()
		s.SampleN(0, -1)
	}()
}

func TestMechanismSamplerArbitrary(t *testing.T) {
	e := newEngine(t, Config{})
	g, err := e.Geometric(5, rational.MustParse("1/4"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Sampler(context.Background(), SamplerSpec{Mechanism: g})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Sample(2); r < 0 || r > 5 {
		t.Errorf("draw %d out of range", r)
	}
}

// TestSamplerBatchChiSquare drives the full engine batch path —
// shared PRNG stream, block reservation, dyadic table — and checks the
// draws fit the exact rational PMF at the 10^−3 level. Together with
// the construction-time certificate (sample.NewDyadicAlias) and
// sample's own kernel-level chi-square test, this pins the engine
// wiring: if SampleInto mixed up rows or block iteration, the fit
// would collapse.
func TestSamplerBatchChiSquare(t *testing.T) {
	const n, trials = 12, 200000
	e := newEngine(t, Config{Seed: 99})
	a := rational.MustParse("1/3")
	s, err := e.Sampler(context.Background(), SamplerSpec{N: n, Alpha: a})
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Geometric(n, a)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n+1)
	dst := make([]int, 1000)
	for batch := 0; batch < trials/len(dst); batch++ {
		s.SampleInto(3, dst)
		for _, r := range dst {
			counts[r]++
		}
	}
	expected := make([]float64, n+1)
	for r := 0; r <= n; r++ {
		expected[r] = rational.Float(g.Prob(3, r))
	}
	// Cells with expected count < 5 would break Pearson's
	// approximation; G_{12,1/3} at input 3 keeps every cell above
	// that with 200k trials except the far tail, which we pool.
	obs, exp := counts[:n], expected[:n]
	obs[n-1] += counts[n]
	exp[n-1] += expected[n]
	chi := 0.0
	for i := range obs {
		e := float64(trials) * exp[i]
		d := float64(obs[i]) - e
		chi += d * d / e
	}
	// 0.999 quantile of χ²(df=11) ≈ 31.3.
	if chi > 31.3 {
		t.Errorf("χ² = %.1f > 31.3 (df=%d): batch path does not fit exact PMF", chi, len(obs)-1)
	}
}

func TestSamplerBatchMetricsAndTrace(t *testing.T) {
	var mu sync.Mutex
	var batchEvents []TraceEvent
	e := newEngine(t, Config{Trace: func(ev TraceEvent) {
		if ev.Kind == TraceSampleBatch {
			mu.Lock()
			batchEvents = append(batchEvents, ev)
			mu.Unlock()
		}
	}})
	s, err := e.Sampler(context.Background(), SamplerSpec{N: 6, Alpha: rational.MustParse("1/2")})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 100)
	s.SampleInto(2, dst)
	s.SampleInto(2, dst[:7])
	_ = s.SampleN(2, 3)
	s.SampleInto(2, nil) // empty batch: no draws, no batch count, no event
	_ = s.Sample(2)      // single draw: counts a draw, not a batch

	m := e.Metrics()
	if m.SamplerDraws != 100+7+3+1 {
		t.Errorf("draws = %d, want 111", m.SamplerDraws)
	}
	if m.SamplerBatches != 3 {
		t.Errorf("batches = %d, want 3", m.SamplerBatches)
	}
	var histTotal uint64
	for _, c := range m.SamplerBatchSizes.Counts {
		histTotal += c
	}
	if histTotal != 3 {
		t.Errorf("batch-size histogram total = %d, want 3", histTotal)
	}
	if len(m.SamplerBatchSizes.Bounds)+1 != len(m.SamplerBatchSizes.Counts) {
		t.Errorf("histogram shape: %d bounds, %d counts",
			len(m.SamplerBatchSizes.Bounds), len(m.SamplerBatchSizes.Counts))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batchEvents) != 3 {
		t.Fatalf("got %d sample-batch trace events, want 3", len(batchEvents))
	}
	sizes := map[int]bool{}
	for _, ev := range batchEvents {
		if ev.Artifact != "samplers" {
			t.Errorf("trace artifact = %q, want samplers", ev.Artifact)
		}
		sizes[ev.Draws] = true
	}
	for _, want := range []int{100, 7, 3} {
		if !sizes[want] {
			t.Errorf("no trace event with Draws=%d", want)
		}
	}
}

// TestSampleIntoZeroAlloc pins the zero-allocation contract of the
// hot path (the acceptance criterion behind the <100ns single-draw
// target: an allocation would dwarf the draw itself).
func TestSampleIntoZeroAlloc(t *testing.T) {
	s, err := newEngine(t, Config{}).Sampler(context.Background(), SamplerSpec{N: 16, Alpha: rational.MustParse("1/2")})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 64)
	if avg := testing.AllocsPerRun(100, func() { s.SampleInto(5, dst) }); avg != 0 {
		t.Errorf("SampleInto allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = s.Sample(5) }); avg != 0 {
		t.Errorf("Sample allocates %.1f objects per call, want 0", avg)
	}
	// SampleN's contract is exactly one allocation: the result slice.
	if avg := testing.AllocsPerRun(100, func() { _ = s.SampleN(5, 64) }); avg != 1 {
		t.Errorf("SampleN allocates %.1f objects per call, want exactly 1", avg)
	}
}

// TestSamplerSeedDeterminism documents the determinism contract: a
// fixed Config.Seed fixes the engine's one PRNG stream, so a
// single-goroutine draw sequence is reproducible across engines with
// the same seed, whatever GOMAXPROCS is.
func TestSamplerSeedDeterminism(t *testing.T) {
	draw := func() []int {
		s, err := newEngine(t, Config{Seed: 42}).Sampler(context.Background(), SamplerSpec{N: 8, Alpha: rational.MustParse("1/2")})
		if err != nil {
			t.Fatal(err)
		}
		return s.SampleN(4, 64)
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identically-seeded engines: %d vs %d", i, a[i], b[i])
		}
	}
}
