package engine

import (
	"context"
	"sync/atomic"
	"time"
)

// CacheStats is a point-in-time snapshot of one artifact cache.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
}

// Latency histogram buckets: inclusive upper bounds in nanoseconds,
// one decade apart from 100µs to 10s, with a final unbounded bucket.
// The exact artifacts span nanosecond cache hits to minute-long LP
// solves, so decades resolve the shape without per-request cost.
const histBuckets = 7

var histBoundsNanos = [histBuckets - 1]uint64{
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// histogram is the live, atomically-updated bucket array.
type histogram struct {
	counts [histBuckets]atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	for i, bound := range histBoundsNanos {
		if ns <= bound {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[histBuckets-1].Add(1)
}

// LatencyHistogram is the JSON-marshalable snapshot of a histogram:
// Counts[i] observations fell at or below BoundsNanos[i]; the final
// count (len(BoundsNanos) == len(Counts)−1) is the unbounded
// overflow bucket.
type LatencyHistogram struct {
	BoundsNanos []uint64 `json:"bounds_nanos"`
	Counts      []uint64 `json:"counts"`
}

func (h *histogram) snapshot() LatencyHistogram {
	out := LatencyHistogram{
		BoundsNanos: histBoundsNanos[:],
		Counts:      make([]uint64, histBuckets),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}

// ArtifactStats aggregates the serving counters for one artifact
// class: how many times it was requested, how long the cache-miss
// computations took (total and as a latency histogram), how many
// requests were shed by the solve semaphore, and the cache behavior.
// Misses count actual computations, so under request coalescing N
// concurrent identical requests contribute N to Requests, 1 to
// Misses, and N−1 to Coalesced.
// StoreHits / StoreWrites / StoreErrors count the class's disk-store
// traffic (all zero unless Config.Store is set): misses served by a
// verified disk load instead of a computation, computed artifacts
// persisted back, and non-fatal load/decode/write failures.
type ArtifactStats struct {
	Requests       uint64           `json:"requests"`
	ComputeNanos   uint64           `json:"compute_nanos"`
	Shed           uint64           `json:"shed"`
	StoreHits      uint64           `json:"store_hits"`
	StoreWrites    uint64           `json:"store_writes"`
	StoreErrors    uint64           `json:"store_errors"`
	ComputeLatency LatencyHistogram `json:"compute_latency"`
	Cache          CacheStats       `json:"cache"`
}

// LPSolveStats aggregates the float-guided exact LP solver's behavior
// across every solve the engine ran (tailored and interaction classes
// combined). Exactly one of the three path counters advances per
// solve: a hit means the float-located basis was certified optimal
// and unique with zero exact pivots; a resume means exact pivoting
// continued from that basis (including the refinement of a tied
// optimum to the canonical one); a fallback means the full exact
// two-phase simplex ran from scratch because the float solve failed
// or its basis was singular or infeasible (see lp.SolveStats).
// TiedOptima counts solves whose optimum was not unique.
// Solves counts LP solver invocations (successful or not) across the
// engine's lifetime; the Bayesian remap scan is no LP and does not
// count. A warm boot that answers every request from the
// disk store reports Solves == 0, which is exactly what the restart
// smoke asserts.
type LPSolveStats struct {
	Solves           uint64 `json:"solves"`
	WarmStartHits    uint64 `json:"warm_start_hits"`
	CrossoverResumes uint64 `json:"crossover_resumes"`
	Fallbacks        uint64 `json:"fallbacks"`
	FloatPivots      uint64 `json:"float_pivots"`
	ExactPivots      uint64 `json:"exact_pivots"`
	RevisedPivots    uint64 `json:"revised_pivots"`
	// FloatNanos is the wall time spent in the float64 basis-locating
	// solve (lp.SolveStats.FloatNanos), summed over every solve.
	FloatNanos uint64 `json:"float_ns"`
	// ParallelPivots is always 0: the parallel dense-tableau
	// elimination it counted is gone. It stays on the wire because
	// perfbench/counters.go reads it (lp.parallel_pivots_per_solve);
	// remove the two together.
	ParallelPivots uint64 `json:"parallel_pivots"`

	// Hybrid-kernel tier split for the sparse LU / revised-simplex
	// path: exact rational operations served by the int64
	// rational.Small fast path and those demoted to big.Rat.
	// SmallOps/(SmallOps+BigFallbacks) is the fleet-wide
	// allocation-free hit rate.
	SmallOps uint64 `json:"small_ops"`
	// WideOps is always 0: the 128-bit rational tier it counted is
	// gone. It stays on the wire because perfbench/counters.go reads
	// it (rational.wide_ops); remove the two together.
	WideOps      uint64 `json:"wide_ops"`
	BigFallbacks uint64 `json:"big_fallbacks"`

	// Basis refactorizations during revised pivoting, with the subset
	// forced by the eta-chain entry-magnitude trigger rather than the
	// pivot-count backstop (lp/revised.go: needsRefactor).
	Refactorizations   uint64 `json:"refactorizations"`
	MagnitudeRefactors uint64 `json:"magnitude_refactors"`

	// PresolveRows is always 0: the exact presolve whose eliminated
	// rows it counted is gone. It stays on the wire because
	// perfbench/counters.go reads it (lp.presolve_rows_removed);
	// remove the two together.
	PresolveRows uint64 `json:"presolve_rows_removed"`

	TiedOptima uint64 `json:"tied_optima"`
}

// lpCounters is the live, atomically-updated form of LPSolveStats.
type lpCounters struct {
	solves           atomic.Uint64
	warmStartHits    atomic.Uint64
	crossoverResumes atomic.Uint64
	fallbacks        atomic.Uint64
	floatPivots      atomic.Uint64
	floatNanos       atomic.Uint64
	exactPivots      atomic.Uint64
	revisedPivots    atomic.Uint64
	smallOps         atomic.Uint64
	bigFallbacks     atomic.Uint64
	refactorizations atomic.Uint64
	magnitudeRefacts atomic.Uint64
	tiedOptima       atomic.Uint64
}

func (c *lpCounters) snapshot() LPSolveStats {
	return LPSolveStats{
		Solves:             c.solves.Load(),
		WarmStartHits:      c.warmStartHits.Load(),
		CrossoverResumes:   c.crossoverResumes.Load(),
		Fallbacks:          c.fallbacks.Load(),
		FloatPivots:        c.floatPivots.Load(),
		FloatNanos:         c.floatNanos.Load(),
		ExactPivots:        c.exactPivots.Load(),
		RevisedPivots:      c.revisedPivots.Load(),
		SmallOps:           c.smallOps.Load(),
		BigFallbacks:       c.bigFallbacks.Load(),
		Refactorizations:   c.refactorizations.Load(),
		MagnitudeRefactors: c.magnitudeRefacts.Load(),
		TiedOptima:         c.tiedOptima.Load(),
	}
}

// Metrics is the engine's expvar-style metrics surface: a plain
// struct that marshals directly to JSON. Counters are monotone over
// the engine's lifetime (InFlightSolves is the one gauge); snapshots
// are internally consistent per counter but not across counters (each
// is read atomically, the struct is not a transaction).
type Metrics struct {
	Mechanisms   ArtifactStats `json:"mechanisms"`
	Plans        ArtifactStats `json:"plans"`
	Tailored     ArtifactStats `json:"tailored"`
	Interactions ArtifactStats `json:"interactions"`
	Compares     ArtifactStats `json:"compares"`
	// SamplerDraws counts individual draws across every sampler the
	// engine built; SamplerBatches counts batch-API calls
	// (SampleInto/SampleN), and SamplerBatchSizes is the distribution
	// of draws per batch call.
	SamplerDraws      uint64             `json:"sampler_draws"`
	SamplerBatches    uint64             `json:"sampler_batches"`
	SamplerBatchSizes BatchSizeHistogram `json:"sampler_batch_sizes"`
	InFlightSolves    int                `json:"in_flight_solves"`
	LP                LPSolveStats       `json:"lp"`
}

// solveSem is the engine-wide bound on concurrently running solves
// (LP solves and release-plan builds). A solve holds its slot until
// it finishes, whether or not anyone still waits for it. Admission is non-blocking by design: a request that cannot
// get a slot is shed immediately (ErrSaturated) rather than queued,
// so overload surfaces as fast 429s at the HTTP layer instead of a
// growing convoy of multi-second solves.
type solveSem struct {
	slots chan struct{}
}

func newSolveSem(capacity int) *solveSem {
	return &solveSem{slots: make(chan struct{}, capacity)}
}

func (s *solveSem) tryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *solveSem) release() { <-s.slots }

func (s *solveSem) inFlight() int { return len(s.slots) }

// store couples one artifact cache with a flight group and its
// counters. All engine artifact access goes through the lookup
// (hit) / compute (miss) pair.
type store struct {
	name   string // artifact class, used in trace events
	cache  *cache
	flight flightGroup
	trace  TraceFunc    // nil = tracing off
	disk   *diskBinding // nil = this class is not persisted

	requests     atomic.Uint64
	hits         atomic.Uint64
	misses       atomic.Uint64
	coalesced    atomic.Uint64
	evictions    atomic.Uint64
	shed         atomic.Uint64
	storeHits    atomic.Uint64
	storeWrites  atomic.Uint64
	storeErrors  atomic.Uint64
	computeNanos atomic.Uint64
	hist         histogram
}

func newStore(name string, capacity int) *store {
	return &store{name: name, cache: newCache(capacity)}
}

// emit sends a bare span event to the trace hook, if any. The nil
// check keeps the traced-off fast path to a single branch.
func (s *store) emit(kind TraceKind, key string) {
	if s.trace != nil {
		s.trace(TraceEvent{Artifact: s.name, Key: key, Kind: kind})
	}
}

func (s *store) emitDone(key string, d time.Duration, err error) {
	if s.trace != nil {
		s.trace(TraceEvent{Artifact: s.name, Key: key, Kind: TraceSolveDone, Duration: d, Err: err})
	}
}

// lookup is the hit path of the lookup/compute pair: a
// counter-counted cache probe under ctx. It owns the requests
// counter, so every compute call must be preceded by a lookup miss.
// It exists separately from compute so engine methods can probe
// before constructing their compute closures: the miss path's
// closures escape to the solve goroutine and are therefore
// heap-allocated at the point they are built, and building them
// eagerly would charge two allocations to every nanosecond cache hit.
func (s *store) lookup(ctx context.Context, key string) (any, bool, error) {
	s.requests.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if v, ok := s.cache.get(key); ok {
		s.hits.Add(1)
		s.emit(TraceHit, key)
		return v, true, nil
	}
	return nil, false, nil
}

// compute is the miss path of the lookup/compute pair: coalesced
// compute-and-fill under ctx. The caller must have just missed in
// lookup (which counted the request). A non-nil sem makes the
// computation take one of its slots, or be shed with ErrSaturated; a
// composite computation passes nil, since the solves it nests take
// their own.
//
// Lifetime: ctx bounds only how long this caller waits (see
// flightGroup). A computation that has started runs to completion
// under the engine's root context, holding its solve slot, and its
// result is cached and queued for the disk writer whoever is still
// waiting; only Engine.Close cancels it. The disk write itself lands
// after the result is returned (persist.go).
//
// Nothing errored ever enters the cache: fn errors, including the
// root context's error from a solve that Close canceled, skip the
// cache fill. Errors are returned to every coalesced caller
// (deterministic artifacts mean a parameter error would fail
// identically on retry anyway).
func (s *store) compute(ctx context.Context, key string, sem *solveSem, fn func(context.Context) (any, error)) (any, error) {
	v, started, err := s.flight.do(ctx, key, func(solveCtx context.Context) (any, error) {
		// Re-check under the flight: a previous computation may have
		// filled the cache between our lookup and registering.
		if v, ok := s.cache.get(key); ok {
			s.hits.Add(1)
			s.emit(TraceHit, key)
			return v, nil
		}
		s.misses.Add(1)
		s.emit(TraceMiss, key)
		// Disk probe between the in-memory miss and the solve: a
		// verified load replaces the computation entirely, so it is
		// never shed (no solve slot is needed) and records no solve
		// latency. Load failures of any kind degrade to a normal miss.
		if s.disk != nil {
			if v, ok := s.diskLoad(key); ok {
				s.evictions.Add(uint64(s.cache.put(key, v)))
				return v, nil
			}
		}
		if sem != nil {
			if !sem.tryAcquire() {
				s.shed.Add(1)
				s.emit(TraceShed, key)
				return nil, ErrSaturated
			}
			defer sem.release()
		}
		s.emit(TraceSolveStart, key)
		start := time.Now()
		v, err := fn(solveCtx)
		elapsed := time.Since(start)
		s.emitDone(key, elapsed, err)
		if err != nil {
			return nil, err
		}
		s.computeNanos.Add(uint64(elapsed.Nanoseconds()))
		s.hist.observe(elapsed)
		s.evictions.Add(uint64(s.cache.put(key, v)))
		if s.disk != nil {
			s.disk.w.enqueue(s, key, v)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	if !started {
		s.coalesced.Add(1)
		s.emit(TraceCoalesced, key)
	}
	return v, nil
}

// stats snapshots the store's counters.
func (s *store) stats() ArtifactStats {
	return ArtifactStats{
		Requests:       s.requests.Load(),
		ComputeNanos:   s.computeNanos.Load(),
		Shed:           s.shed.Load(),
		StoreHits:      s.storeHits.Load(),
		StoreWrites:    s.storeWrites.Load(),
		StoreErrors:    s.storeErrors.Load(),
		ComputeLatency: s.hist.snapshot(),
		Cache: CacheStats{
			Size:      s.cache.size(),
			Capacity:  s.cache.capacity,
			Hits:      s.hits.Load(),
			Misses:    s.misses.Load(),
			Coalesced: s.coalesced.Load(),
			Evictions: s.evictions.Load(),
		},
	}
}
