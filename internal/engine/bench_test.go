// Parallel throughput benchmarks for the serving engine. These back
// the subsystem's claim: the artifact cache turns repeat LP solves
// and mechanism constructions into lookups. Compare
// BenchmarkEngineTailoredCached against
// BenchmarkEngineTailoredUncached (a tailored miss on a fresh engine)
// — the gap is several orders of magnitude. scripts/check.sh runs every Engine
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

// benchTailoredMiss times what the engine serves on a tailored miss:
// a fresh engine per op, so every TailoredMechanism call misses and
// runs the consumer's interaction solve against G_{n,α}.
func benchTailoredMiss(b *testing.B, l loss.Function, n int) {
	a := rational.MustParse("1/2")
	c := &consumer.Consumer{Loss: l}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(Config{})
		_, err := e.TailoredMechanism(c, n, a)
		e.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTailoredUncached is a tailored miss at serving size
// (absolute loss, full side, n=8, α=1/2).
func BenchmarkEngineTailoredUncached(b *testing.B) { benchTailoredMiss(b, loss.Absolute{}, 8) }

// BenchmarkEngineTailoredUncachedTie is a tailored miss whose §2.5 LP
// has a tied optimum (squared loss, n=8, α=1/2). The served
// interaction solve is what it times now; the tied tailored LP stays
// gated through the oracle rows below.
func BenchmarkEngineTailoredUncachedTie(b *testing.B) { benchTailoredMiss(b, loss.Squared{}, 8) }

// BenchmarkEngineTailoredExactOnly is the §2.5 LP at n=8 (absolute
// loss, α=1/2) under StrategyExact: the cold two-phase revised simplex
// that also serves every float-failure fallback. With
// BenchmarkTable1OptimalLP it keeps the library's tailored LP, the
// oracle the engine's answers are checked against, gated.
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

// BenchmarkEngineTailoredUncachedN16, …N24 and …N32 are tailored misses
// at larger n, up to the server's LP cap (n=32). Each is one
// interaction solve: n+1+|S| rows against the §2.5 LP's
// 2n(n+1)+|S|+n+1.
func BenchmarkEngineTailoredUncachedN16(b *testing.B) { benchTailoredMiss(b, loss.Absolute{}, 16) }

func BenchmarkEngineTailoredUncachedN24(b *testing.B) { benchTailoredMiss(b, loss.Absolute{}, 24) }

func BenchmarkEngineTailoredUncachedN32(b *testing.B) { benchTailoredMiss(b, loss.Absolute{}, 32) }

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
