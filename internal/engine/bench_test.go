// Parallel throughput benchmarks for the serving engine. These back
// the subsystem's claim: the artifact cache turns repeat LP solves
// and mechanism constructions into lookups. Compare
// BenchmarkEngineTailoredCached against
// BenchmarkEngineTailoredUncached (the raw §2.5 solve) — the gap is
// several orders of magnitude. scripts/check.sh runs every Engine
// benchmark once as a compile-and-smoke gate.
package engine

import (
	"context"
	"testing"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/rational"
)

func BenchmarkEngineTailoredCached(b *testing.B) {
	e := New(Config{})
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	if _, err := e.TailoredMechanism(c, 8, a); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.TailoredMechanism(c, 8, a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEngineTailoredUncached(b *testing.B) {
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := consumer.OptimalMechanism(c, 8, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTailoredUncachedTie is a cold solve with a tied
// optimum (squared loss, full side, n=8, α=1/2): the warm start
// certifies an optimal basis with some zero reduced costs, and the
// solve is finished by the lexicographic refinement on the sparse LU.
// Before that refinement existed, a tie demoted to the dense big.Rat
// two-phase solve, which took about 1.6s here.
func BenchmarkEngineTailoredUncachedTie(b *testing.B) {
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Squared{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := consumer.OptimalMechanism(c, 8, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTailoredExactOnly is the BenchmarkEngineTailoredUncached
// solve under StrategyExact: the cold two-phase revised simplex that
// also serves every float-failure fallback. It keeps that path gated
// at serving size, though neither served workload normally reaches it.
func BenchmarkEngineTailoredExactOnly(b *testing.B) {
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	opts := lp.SolveOpts{Strategy: lp.StrategyExact}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := consumer.OptimalMechanismOpts(context.Background(), c, 8, a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTailoredUncachedN16 is the large-n cold solve the
// revised-simplex pipeline made servable (it exceeded the old
// full-tableau solver's practical range). At n=16 it starts from
// Theorem 1's G·T*: the interaction solve against G_{16,1/2}, then the
// certificate of the basis read off that point (DESIGN.md §10).
func BenchmarkEngineTailoredUncachedN16(b *testing.B) {
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := consumer.OptimalMechanism(c, 16, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTailoredUncachedN24 is the entry-growth wall that
// Markowitz refactorization and the float-side dual cleanup broke:
// before them, this cold solve spent ~20s in big.Rat allocation (≈2.1M
// big fallbacks; DESIGN.md §16). It now starts from Theorem 1's G·T*
// like the n=16 solve. BENCH_lp.json pins it so the large-n regime
// stays honest.
func BenchmarkEngineTailoredUncachedN24(b *testing.B) {
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := consumer.OptimalMechanism(c, 24, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTailoredUncachedN32 is the cold solve at the
// server's LP cap (n=32). Started from Theorem 1's G·T* it takes a
// fraction of a second; the float locate it replaces took about 12 s
// here, which kept this row out of the gate.
func BenchmarkEngineTailoredUncachedN32(b *testing.B) {
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := consumer.OptimalMechanism(c, 32, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGeometricCached(b *testing.B) {
	e := New(Config{})
	a := rational.MustParse("1/2")
	if _, err := e.Geometric(64, a); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Geometric(64, a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSampler returns the standard benchmark sampler: G_{64,1/2},
// drawn at the central input 32. A row's alias table is built on its
// first draw, so one draw here keeps that build out of the timed loop.
func benchSampler(b *testing.B) *Sampler {
	b.Helper()
	s, err := New(Config{}).Sampler(context.Background(), SamplerSpec{N: 64, Alpha: rational.MustParse("1/2")})
	if err != nil {
		b.Fatal(err)
	}
	s.Sample(32)
	return s
}

// BenchmarkEngineSamplerSingle is the cached single-draw hot path:
// one PRNG word, one table compare. Target: ≤100ns
// and 0 allocs per op (ISSUE 5 acceptance criteria).
func BenchmarkEngineSamplerSingle(b *testing.B) {
	s := benchSampler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(32)
	}
}

// BenchmarkEngineSamplerBatch drives SampleInto with a 1024-draw
// buffer; ns/op is per *batch*, so per-draw cost is ns/op ÷ 1024.
// This is the path behind /v1/sample?count=N.
func BenchmarkEngineSamplerBatch(b *testing.B) {
	s := benchSampler(b)
	dst := make([]int, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(32, dst)
	}
}

// BenchmarkEngineSamplerParallel hammers single draws from all Ps at
// once. Every P shares the engine's one PRNG stream and draw counter,
// so against the serial single-draw bench it shows what that
// contention costs.
func BenchmarkEngineSamplerParallel(b *testing.B) {
	s := benchSampler(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = s.Sample(32)
		}
	})
}

// BenchmarkEngineSamplerBatchParallel is the serving worst case —
// every P streaming batches concurrently — and the headline
// throughput number (draws/s = 1024 × ops/s).
func BenchmarkEngineSamplerBatchParallel(b *testing.B) {
	s := benchSampler(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]int, 1024)
		for pb.Next() {
			s.SampleInto(32, dst)
		}
	})
}

// BenchmarkEngineCompare measures the cached compare scorecard path —
// the POST /v1/compare hot path once the first request has paid for
// the nested LP solves. The warm request is a single cache probe on
// the compares class; the regression gate (BENCH_compare.json) pins
// it beside the other cached artifact reads.
func BenchmarkEngineCompare(b *testing.B) {
	e := New(Config{})
	spec := CompareSpec{
		N:     8,
		Alpha: rational.MustParse("1/2"),
		Model: &consumer.Consumer{Loss: loss.Absolute{}},
	}
	if _, err := e.Compare(spec); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Compare(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
