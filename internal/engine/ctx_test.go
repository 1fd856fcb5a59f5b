package engine

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
)

// --- flightGroup unit tests ----------------------------------------------
//
// These drive the group with hand-built fns blocking on channels, so
// every interleaving the engine relies on is forced deterministically
// rather than raced against real LP solve times.

// TestFlightDetachedWaiterDoesNotKillSolve: two waiters share a
// computation; the one that cancels detaches with its own ctx.Err()
// while the computation keeps running for the survivor.
func TestFlightDetachedWaiterDoesNotKillSolve(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(solveCtx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
			return "result", nil
		case <-solveCtx.Done():
			return nil, solveCtx.Err()
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	type res struct {
		val     any
		started bool
		err     error
	}
	ch1 := make(chan res, 1)
	go func() {
		v, s, err := g.do(ctx1, "k", fn)
		ch1 <- res{v, s, err}
	}()
	<-started

	ch2 := make(chan res, 1)
	go func() {
		v, s, err := g.do(context.Background(), "k", fn)
		ch2 <- res{v, s, err}
	}()
	// Wait for the second caller to register as a waiter before
	// detaching the first, so cancel1 cannot be the last waiter.
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		c := g.calls["k"]
		return c != nil && c.waiters == 2
	})

	cancel1()
	r1 := <-ch1
	if !errors.Is(r1.err, context.Canceled) {
		t.Fatalf("detached waiter err = %v, want context.Canceled", r1.err)
	}

	close(release)
	r2 := <-ch2
	if r2.err != nil || r2.val != "result" {
		t.Fatalf("surviving waiter = (%v, %v), want (result, nil)", r2.val, r2.err)
	}
	if r2.started {
		t.Error("second caller reported started=true, want coalesced")
	}
}

// TestFlightLastWaiterCancelsSolve: when every waiter detaches, the
// computation's context is canceled and the call is retired, so the
// next request starts a fresh computation.
func TestFlightLastWaiterCancelsSolve(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	solveCanceled := make(chan struct{})
	fn := func(solveCtx context.Context) (any, error) {
		close(started)
		<-solveCtx.Done()
		close(solveCanceled)
		return nil, solveCtx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := g.do(ctx, "k", fn)
		errCh <- err
	}()
	<-started
	cancel()

	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("sole waiter err = %v, want context.Canceled", err)
	}
	select {
	case <-solveCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("computation context was not canceled after last waiter detached")
	}

	// The abandoned call must be retired: a fresh request starts anew.
	v, startedFresh, err := g.do(context.Background(), "k",
		func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" || !startedFresh {
		t.Fatalf("post-abandon do = (%v, %v, %v), want (fresh, true, nil)", v, startedFresh, err)
	}
}

// TestFlightSequentialCallsStartFresh: a call that has returned is
// retired, so the same caller's next request for the key must start a
// new computation. Joining the finished call instead would count it as
// coalesced, never as a cache miss.
func TestFlightSequentialCallsStartFresh(t *testing.T) {
	var g flightGroup
	fn := func(context.Context) (any, error) { return 1, nil }
	for i := 0; i < 1000; i++ {
		if _, started, err := g.do(context.Background(), "k", fn); err != nil || !started {
			t.Fatalf("call %d: started = %v, err = %v; want a fresh computation", i, started, err)
		}
	}
}

// --- engine-level cancellation -------------------------------------------

func absConsumer() *consumer.Consumer {
	return &consumer.Consumer{Name: "test", Loss: loss.Absolute{}}
}

// traceCancel cancels the context whose cancel func is currently
// armed, exactly once, when a solve-start event for the artifact
// class fires. Arming from the test goroutine before the engine call
// and firing from the solve goroutine is race-free: the solve
// goroutine is (transitively) spawned by the engine call.
//
// When holdSolve is non-nil the hook then blocks the solve goroutine
// on it. Closing the channel after the engine call has returned
// guarantees the solve starts only after the last waiter detached —
// i.e. with its computation context already canceled. Without the
// hold the warm-started LP path can finish in microseconds, racing
// the detach and turning the never-cache-canceled assertion flaky.
type traceCancel struct {
	armed     atomic.Pointer[context.CancelFunc]
	holdSolve chan struct{}
}

func (tc *traceCancel) hook(ev TraceEvent) {
	if ev.Kind != TraceSolveStart {
		return
	}
	if cancel := tc.armed.Swap(nil); cancel != nil {
		(*cancel)()
		if tc.holdSolve != nil {
			<-tc.holdSolve
		}
	}
}

// TestTailoredCtxCanceledNotCachedThenRecomputes is the tentpole
// contract: a solve canceled mid-flight returns context.Canceled,
// leaves nothing in the cache, and the next request for the same key
// recomputes from scratch (one more miss).
func TestTailoredCtxCanceledNotCachedThenRecomputes(t *testing.T) {
	tc := &traceCancel{holdSolve: make(chan struct{})}
	e := New(Config{Trace: tc.hook})
	c := absConsumer()
	alpha := big.NewRat(1, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tc.armed.Store(&cancel)

	if _, err := e.TailoredCtx(ctx, c, 6, alpha); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled TailoredCtx err = %v, want context.Canceled", err)
	}
	// TailoredCtx returning means the last waiter detached, which
	// cancels the computation context; only now let the solve proceed,
	// so it deterministically observes cancellation.
	close(tc.holdSolve)
	m := e.Metrics().Tailored
	if m.Cache.Size != 0 {
		t.Fatalf("canceled solve was cached: size = %d, want 0", m.Cache.Size)
	}
	if m.Cache.Misses != 1 {
		t.Fatalf("misses = %d, want 1", m.Cache.Misses)
	}

	// Same key again, uncanceled: must recompute (miss +1) and succeed.
	got, err := e.TailoredCtx(context.Background(), c, 6, alpha)
	if err != nil {
		t.Fatalf("recompute after cancel: %v", err)
	}
	if got == nil || got.Loss == nil {
		t.Fatal("recompute returned empty result")
	}
	m = e.Metrics().Tailored
	if m.Cache.Misses != 2 {
		t.Errorf("misses after recompute = %d, want 2", m.Cache.Misses)
	}
	if m.Cache.Size != 1 {
		t.Errorf("cache size after recompute = %d, want 1", m.Cache.Size)
	}
}

// TestTailoredCtxCancelAbortsLargeSolvePromptly asserts the pivot
// checkpoints actually bite: n=14 solves in minutes uncanceled, but a
// cancel landing at solve start must return well under that.
func TestTailoredCtxCancelAbortsLargeSolvePromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n solve abort test skipped in -short mode")
	}
	tc := &traceCancel{}
	e := New(Config{Trace: tc.hook})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tc.armed.Store(&cancel)

	start := time.Now()
	_, err := e.TailoredCtx(ctx, absConsumer(), 14, big.NewRat(1, 2))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Uncanceled n=14 takes ~90s on CI-class hardware; the abort must
	// land orders of magnitude sooner (LP construction + one pivot).
	if elapsed > 30*time.Second {
		t.Errorf("canceled solve took %v, want prompt abort", elapsed)
	}
	if size := e.Metrics().Tailored.Cache.Size; size != 0 {
		t.Errorf("canceled large solve was cached: size = %d", size)
	}
}

// TestPreCanceledCtxShortCircuits: an already-canceled context never
// reaches the miss path.
func TestPreCanceledCtxShortCircuits(t *testing.T) {
	e := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.TailoredCtx(ctx, absConsumer(), 6, big.NewRat(1, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m := e.Metrics().Tailored
	if m.Cache.Misses != 0 {
		t.Errorf("pre-canceled request counted a miss: %d", m.Cache.Misses)
	}
	if m.Requests != 1 {
		t.Errorf("requests = %d, want 1", m.Requests)
	}
}

// --- load shedding --------------------------------------------------------

// TestEngineShedsWhenSaturated: with a single solve slot occupied, a
// second solve for a different key, or a release-plan build, fails
// fast with ErrSaturated and is counted, while the occupant is
// undisturbed.
func TestEngineShedsWhenSaturated(t *testing.T) {
	solveStarted := make(chan struct{}, 1)
	e := New(Config{
		MaxInFlightSolves: 1,
		Trace: func(ev TraceEvent) {
			if ev.Kind == TraceSolveStart && ev.Artifact == "tailored" {
				select {
				case solveStarted <- struct{}{}:
				default:
				}
			}
		},
	})
	c := absConsumer()

	// Occupy the only slot with a large solve we can abort afterward.
	occCtx, occCancel := context.WithCancel(context.Background())
	occDone := make(chan error, 1)
	go func() {
		_, err := e.TailoredCtx(occCtx, c, 14, big.NewRat(1, 2))
		occDone <- err
	}()
	select {
	case <-solveStarted:
	case <-time.After(30 * time.Second):
		occCancel()
		t.Fatal("occupying solve never started")
	}

	start := time.Now()
	_, err := e.TailoredCtx(context.Background(), c, 6, big.NewRat(2, 3))
	if !errors.Is(err, ErrSaturated) {
		occCancel()
		t.Fatalf("saturated TailoredCtx err = %v, want ErrSaturated", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shed took %v, want fast-fail", elapsed)
	}
	// A release-plan build takes a slot too, so it is shed the same way.
	if _, err := e.ReleasePlan(6, []*big.Rat{big.NewRat(1, 3), big.NewRat(1, 2)}); !errors.Is(err, ErrSaturated) {
		occCancel()
		t.Fatalf("saturated ReleasePlan err = %v, want ErrSaturated", err)
	}
	m := e.Metrics()
	if m.Tailored.Shed != 1 || m.Plans.Shed != 1 {
		t.Errorf("shed counts: tailored %d, plans %d, want 1 each", m.Tailored.Shed, m.Plans.Shed)
	}
	if m.InFlightSolves != 1 {
		t.Errorf("in-flight solves = %d, want 1", m.InFlightSolves)
	}

	occCancel()
	if err := <-occDone; !errors.Is(err, context.Canceled) {
		t.Errorf("occupying solve err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return e.Metrics().InFlightSolves == 0 })
}

// TestUnlimitedSolvesDisablesShedding: negative MaxInFlightSolves
// removes the semaphore entirely.
func TestUnlimitedSolvesDisablesShedding(t *testing.T) {
	e := New(Config{MaxInFlightSolves: -1})
	if e.solves != nil {
		t.Fatal("negative MaxInFlightSolves still built a semaphore")
	}
	if _, err := e.TailoredMechanism(absConsumer(), 6, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.InFlightSolves != 0 {
		t.Errorf("in-flight solves = %d, want 0", m.InFlightSolves)
	}
}

// --- observability --------------------------------------------------------

// TestLatencyHistogramRecordsSolves: a completed solve lands in
// exactly one histogram bucket; shape matches the JSON contract.
func TestLatencyHistogramRecordsSolves(t *testing.T) {
	e := New(Config{})
	if _, err := e.TailoredMechanism(absConsumer(), 6, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	h := e.Metrics().Tailored.ComputeLatency
	if len(h.Counts) != histBuckets || len(h.BoundsNanos) != histBuckets-1 {
		t.Fatalf("histogram shape = %d counts / %d bounds, want %d/%d",
			len(h.Counts), len(h.BoundsNanos), histBuckets, histBuckets-1)
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != 1 {
		t.Errorf("histogram total = %d, want 1 observation", total)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	var h histogram
	h.observe(50 * time.Microsecond)  // bucket 0 (≤100µs)
	h.observe(100 * time.Microsecond) // bucket 0 (inclusive bound)
	h.observe(5 * time.Millisecond)   // bucket 2 (≤10ms)
	h.observe(time.Minute)            // overflow bucket
	s := h.snapshot()
	want := []uint64{2, 0, 1, 0, 0, 0, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (full: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
}

// TestTraceEventSequence: cold then warm requests emit
// miss → solve-start → solve-done, then hit.
func TestTraceEventSequence(t *testing.T) {
	var mu sync.Mutex
	var kinds []TraceKind
	e := New(Config{Trace: func(ev TraceEvent) {
		if ev.Artifact != "mechanisms" {
			return
		}
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	}})
	if _, err := e.Geometric(8, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Geometric(8, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []TraceKind{TraceMiss, TraceSolveStart, TraceSolveDone, TraceHit}
	if len(kinds) != len(want) {
		t.Fatalf("trace kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace kinds = %v, want %v", kinds, want)
		}
	}
}

// --- unified sampler ------------------------------------------------------

func TestSamplerSpecGeometricCached(t *testing.T) {
	e := New(Config{})
	s1, err := e.Sampler(context.Background(), SamplerSpec{N: 16, Alpha: big.NewRat(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if s1.N() != 16 {
		t.Fatalf("N = %d, want 16", s1.N())
	}
	// A second spec with equal parameters must view the same cached G:
	// equal α in another representation shares its tables.
	s2, err := e.Sampler(context.Background(), SamplerSpec{N: 16, Alpha: big.NewRat(2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.rows {
		if s1.rows[i] != s2.rows[i] {
			t.Fatalf("row %d: equal SamplerSpecs built separate tables", i)
		}
	}
	if m := e.Metrics().Mechanisms.Cache; m.Misses != 1 || m.Hits != 1 {
		t.Errorf("mechanisms cache = %+v, want one miss and one hit", m)
	}
}

func TestSamplerSpecMechanismUncached(t *testing.T) {
	e := New(Config{})
	g, err := e.Geometric(8, big.NewRat(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Sampler(context.Background(), SamplerSpec{Mechanism: g})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Sample(3); r < 0 || r > 8 {
		t.Errorf("sample %d out of range [0,8]", r)
	}
}

func TestSamplerSpecValidation(t *testing.T) {
	e := New(Config{})
	g, err := e.Geometric(4, big.NewRat(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sampler(context.Background(), SamplerSpec{Mechanism: g, Alpha: big.NewRat(1, 2)}); err == nil {
		t.Error("SamplerSpec with both Mechanism and Alpha accepted")
	}
	if _, err := e.Sampler(context.Background(), SamplerSpec{N: 4}); err == nil {
		t.Error("SamplerSpec with neither Mechanism nor Alpha accepted")
	}
}

// --- helpers --------------------------------------------------------------

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

// --- LP domain cap --------------------------------------------------------

// TestLPDomainCap: every LP-backed route fails fast with
// ErrDomainTooLarge above Config.MaxLPDomainN, a negative cap
// disables the guard, and the non-LP routes are unaffected.
func TestLPDomainCap(t *testing.T) {
	e := New(Config{MaxLPDomainN: 4})
	c := absConsumer()
	half := big.NewRat(1, 2)

	if _, err := e.TailoredCtx(context.Background(), c, 5, half); !errors.Is(err, ErrDomainTooLarge) {
		t.Errorf("TailoredCtx(n=5) err = %v, want ErrDomainTooLarge", err)
	}
	if _, err := e.InteractionCtx(context.Background(), c, 5, half); !errors.Is(err, ErrDomainTooLarge) {
		t.Errorf("InteractionCtx(n=5) err = %v, want ErrDomainTooLarge", err)
	}
	if _, err := e.CompareCtx(context.Background(), CompareSpec{N: 5, Alpha: half, Model: c}); !errors.Is(err, ErrDomainTooLarge) {
		t.Errorf("CompareCtx(n=5) err = %v, want ErrDomainTooLarge", err)
	}
	if _, err := e.TailoredCtx(context.Background(), c, 4, half); err != nil {
		t.Errorf("TailoredCtx(n=4) under the cap failed: %v", err)
	}
	// Geometric is a matrix artifact, not LP-backed: no cap.
	if _, err := e.Geometric(5, half); err != nil {
		t.Errorf("Geometric(n=5) hit the LP cap: %v", err)
	}

	unguarded := New(Config{MaxLPDomainN: -1})
	if _, err := unguarded.TailoredCtx(context.Background(), c, 5, half); err != nil {
		t.Errorf("unguarded TailoredCtx(n=5) failed: %v", err)
	}
}
