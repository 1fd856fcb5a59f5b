// The serving hot path: once the engine's caches are warm, every user
// request reduces to one draw from a cached mechanism row (the
// Theorem 1/§4.2 deployment story — publish G_{n,α}, let each
// consumer post-process). Draws therefore go through the dyadic alias
// kernel (sample.DyadicAlias): integer tables built *exactly* from
// the mechanism's rational rows and certified against the rational
// PMF at construction, sampled with one PRNG word, one index, one
// compare — no float math, no locks, no allocation. This file is
// fully exact-side: internal/engine is fenced in floatflow's table
// (DESIGN.md §7/§11); the former float64 projection of the rows is
// gone.

package engine

import (
	"context"
	"fmt"
	"math/big"
	"sync/atomic"

	"minimaxdp/internal/mechanism"
)

// Sampler draws from a fixed mechanism in O(1) per draw. It is a
// value view: a mechanism, the engine whose PRNG stream and counters
// it uses, and a trace key. It owns no tables: each draw goes through
// the mechanism's certified per-row table (Mechanism.AliasRow), which
// the mechanism builds once and shares with Mechanism.Sample and every
// other view. Unlike mechanism.Sample (which takes a caller-owned
// *rand.Rand), Sampler methods are safe for concurrent use:
// randomness comes from the engine's lock-free splitmix64 stream.
type Sampler struct {
	m   *mechanism.Mechanism
	e   *Engine
	key string // cache key (or "adhoc") for trace events
}

// View returns a sampler over m. Building it allocates nothing.
func (e *Engine) View(m *mechanism.Mechanism) Sampler {
	return Sampler{m: m, e: e, key: "adhoc"}
}

// N returns the mechanism's domain bound (results lie in {0..n}).
func (s Sampler) N() int { return s.m.N() }

// Sample draws one released result for true input i. Cost: one
// atomic add on the PRNG, one table lookup, one atomic add on the
// draw counter. Zero allocations once row i's table exists. It panics
// if i is outside [0,n].
//
//dpvet:hotpath
func (s Sampler) Sample(i int) int {
	r := s.m.AliasRow(i).SampleWord(s.e.rng.Uint64())
	s.e.draws.Add(1)
	return r
}

// SampleInto fills dst with len(dst) released results for true input
// i. The whole batch reserves one contiguous block of the PRNG stream
// with a single atomic add, counts draws with a single atomic add,
// and allocates nothing; this is the bulk form behind
// /v1/sample?count=N and the ≥50× win over per-draw sampling.
//
//dpvet:hotpath
func (s Sampler) SampleInto(i int, dst []int) {
	row := s.m.AliasRow(i)
	if len(dst) == 0 {
		return
	}
	e := s.e
	blk := e.rng.Block(len(dst))
	for k := range dst {
		dst[k] = row.SampleWord(blk.Next())
	}
	e.draws.Add(uint64(len(dst)))
	e.batches.Add(1)
	e.batchSizes.observe(len(dst))
	if e.trace != nil {
		e.trace(TraceEvent{Artifact: "samplers", Key: s.key, Kind: TraceSampleBatch, Draws: len(dst)})
	}
}

// SampleN draws count released results for true input i. It is
// SampleInto with a single result-slice allocation.
func (s Sampler) SampleN(i, count int) []int {
	if count < 0 {
		panic(fmt.Sprintf("engine: negative sample count %d", count))
	}
	out := make([]int, count)
	s.SampleInto(i, out)
	return out
}

// SamplerSpec selects which mechanism Engine.Sampler wraps. Set
// exactly one of:
//
//   - N and Alpha: the geometric mechanism G_{n,α}. The sampler is a
//     view of the engine's cached G (GeometricCtx): its rows are G's
//     own alias tables, so every sampler for one (n, α) shares them.
//   - Mechanism: an arbitrary mechanism. The sampler is a view of it,
//     as Engine.View returns.
//
// Setting both (or neither) is an error.
type SamplerSpec struct {
	N         int
	Alpha     *big.Rat
	Mechanism *mechanism.Mechanism
}

// Sampler returns a concurrency-safe dyadic alias sampler over the
// mechanism selected by spec (see SamplerSpec). A sampler owns no
// tables: it is a view of the mechanism's certified per-row tables
// (Mechanism.AliasRow), which the mechanism builds once and shares
// with Mechanism.Sample and every other sampler over it. ctx is
// honored at entry and across a coalesced wait for G.
func (e *Engine) Sampler(ctx context.Context, spec SamplerSpec) (*Sampler, error) {
	if spec.Mechanism != nil {
		if spec.Alpha != nil {
			return nil, fmt.Errorf("engine: SamplerSpec sets both Mechanism and Alpha")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := e.View(spec.Mechanism)
		return &s, nil
	}
	g, err := e.GeometricCtx(ctx, spec.N, spec.Alpha)
	if err != nil {
		return nil, err
	}
	return &Sampler{m: g, e: e, key: geometricKey(spec.N, spec.Alpha)}, nil
}

// Batch-size histogram bucket bounds (inclusive upper bounds, in
// draws per batch call); the final bucket is unbounded. Powers of
// eight resolve the interesting range — single draws, small UI
// batches, and the /v1/sample cap — in five buckets.
var batchSizeBounds = [...]uint64{1, 8, 64, 512, 4096}

const batchSizeBuckets = len(batchSizeBounds) + 1

// batchHist is the live batch-size histogram, updated once per
// batch-API call (never per draw).
type batchHist struct {
	counts [batchSizeBuckets]atomic.Uint64
}

func (h *batchHist) observe(n int) {
	size := uint64(n)
	for i, bound := range batchSizeBounds {
		if size <= bound {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[batchSizeBuckets-1].Add(1)
}

// BatchSizeHistogram is the JSON snapshot of the batch-size
// distribution: Counts[i] batch calls drew at most Bounds[i] values;
// the final count is the unbounded overflow bucket.
type BatchSizeHistogram struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

func (h *batchHist) snapshot() BatchSizeHistogram {
	out := BatchSizeHistogram{
		Bounds: batchSizeBounds[:],
		Counts: make([]uint64, batchSizeBuckets),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}
