package engine

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
)

// tailoredKey is one distinct tailored request.
type tailoredKey struct {
	n     int
	alpha *big.Rat
	c     *consumer.Consumer
}

// distinctTailored returns count distinct full-side tailored keys over
// the wire losses, n from 2 upward and α ∈ {1/3, 2/3}.
func distinctTailored(count int) []tailoredKey {
	losses := []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}}
	var keys []tailoredKey
	for n := 2; len(keys) < count; n++ {
		for _, l := range losses {
			for _, a := range []string{"1/3", "2/3"} {
				if len(keys) < count {
					keys = append(keys, tailoredKey{n, rational.MustParse(a), &consumer.Consumer{Loss: l}})
				}
			}
		}
	}
	return keys
}

// requestAll sends every key to e from its own goroutine and fails
// the test on any error.
func requestAll(t *testing.T, e *Engine, keys []tailoredKey, served *atomic.Int64) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(keys))
	for _, k := range keys {
		wg.Add(1)
		go func(k tailoredKey) {
			defer wg.Done()
			if _, err := e.TailoredMechanism(k.c, k.n, k.alpha); err != nil {
				errs <- fmt.Errorf("n=%d α=%s %s: %w", k.n, k.alpha.RatString(), k.c.Loss.Name(), err)
			}
			if served != nil {
				served.Add(1)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineWriteBehindDrainsOnClose sends 16 concurrent distinct cold
// tailored misses to an engine with a store and closes it: every miss
// must have been written, with no store error, and a second engine on
// the same directory must serve all 16 with zero solves.
func TestEngineWriteBehindDrainsOnClose(t *testing.T) {
	dir := t.TempDir()
	keys := distinctTailored(16)

	cold := newEngine(t, Config{MaxInFlightSolves: 2 * len(keys), Store: openDisk(t, dir)})
	requestAll(t, cold, keys, nil)
	cold.Close()
	cold.Close() // idempotent
	m := cold.Metrics().Tailored
	if m.Cache.Misses != uint64(len(keys)) || m.StoreWrites != m.Cache.Misses || m.StoreErrors != 0 {
		t.Fatalf("cold engine: %d misses, %d store writes, %d store errors; want %d, %d, 0",
			m.Cache.Misses, m.StoreWrites, m.StoreErrors, len(keys), len(keys))
	}

	warm := newEngine(t, Config{Store: openDisk(t, dir)})
	requestAll(t, warm, keys, nil)
	wm := warm.Metrics()
	if wm.LP.Solves != 0 || wm.Tailored.StoreHits != uint64(len(keys)) {
		t.Errorf("warm engine: %d LP solves, %d tailored store hits; want 0 and %d",
			wm.LP.Solves, wm.Tailored.StoreHits, len(keys))
	}
}

// TestEngineWriteBehindFullQueueBlocks parks the disk writer on its
// first write and sends writeQueue+2 distinct misses: one write is
// parked, writeQueue wait in the queue, and the last miss must block
// in its flight rather than drop its write. Once the writer is freed,
// every request is served and Close leaves every artifact written.
func TestEngineWriteBehindFullQueueBlocks(t *testing.T) {
	keys := distinctTailored(writeQueue + 2)
	release := make(chan struct{})
	var parked sync.Once
	trace := func(ev TraceEvent) {
		if ev.Kind == TraceStoreWrite {
			parked.Do(func() { <-release })
		}
	}
	e := newEngine(t, Config{MaxInFlightSolves: 2 * len(keys), Store: openDisk(t, t.TempDir()), Trace: trace})

	var served atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		requestAll(t, e, keys, &served)
	}()
	// writeQueue+1 requests can finish (one write parked, writeQueue
	// queued); the last one cannot until the writer moves.
	deadline := time.Now().Add(time.Minute)
	for served.Load() < int64(writeQueue+1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := served.Load(); got != int64(writeQueue+1) {
		close(release)
		<-done
		t.Fatalf("with the writer parked, %d of %d requests finished; want %d", got, len(keys), writeQueue+1)
	}
	close(release)
	<-done
	e.Close()
	if m := e.Metrics().Tailored; m.StoreWrites != uint64(len(keys)) || m.StoreErrors != 0 {
		t.Errorf("%d store writes, %d store errors; want %d and 0", m.StoreWrites, m.StoreErrors, len(keys))
	}
}

// TestEngineFullQueueHoldsNoSlot parks the disk writer, fills its
// queue, and sends one more miss under a single solve slot: that
// flight waits on the queue, but its solve is done, so it must have
// given its slot back. The gauge reads 0, and a miss on another key
// is admitted and solved, not shed.
func TestEngineFullQueueHoldsNoSlot(t *testing.T) {
	keys := distinctTailored(writeQueue + 3)
	release := make(chan struct{})
	var parked, freed sync.Once
	free := func() { freed.Do(func() { close(release) }) }
	trace := func(ev TraceEvent) {
		if ev.Kind == TraceStoreWrite {
			parked.Do(func() { <-release })
		}
	}
	e := newEngine(t, Config{MaxInFlightSolves: 1, Store: openDisk(t, t.TempDir()), Trace: trace})
	t.Cleanup(free)

	// One at a time, so the single slot never sheds: one write parks
	// the writer, writeQueue fill the queue, and the next request
	// waits in its flight on the full queue.
	errs := make(chan error, len(keys))
	var served atomic.Int64
	go func() {
		for _, k := range keys[:writeQueue+2] {
			_, err := e.TailoredMechanism(k.c, k.n, k.alpha)
			served.Add(1)
			errs <- err
		}
	}()
	waitFor(t, func() bool { return e.Metrics().Tailored.Cache.Size == writeQueue+2 })
	if got := served.Load(); got != int64(writeQueue+1) {
		t.Fatalf("%d requests served with the writer parked, want %d", got, writeQueue+1)
	}
	if got := e.Metrics().InFlightSolves; got != 0 {
		t.Errorf("a flight waiting on the write queue holds %d solve slots, want 0", got)
	}
	last := keys[writeQueue+2]
	go func() {
		_, err := e.TailoredMechanism(last.c, last.n, last.alpha)
		errs <- err
	}()
	waitFor(t, func() bool { return e.Metrics().Tailored.Cache.Size == writeQueue+3 })
	if m := e.Metrics().Tailored; m.Shed != 0 {
		t.Errorf("a miss beside the queued flight was shed %d times, want admitted", m.Shed)
	}

	free()
	for range keys {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	e.Close()
	if m := e.Metrics().Tailored; m.StoreWrites != uint64(len(keys)) || m.StoreErrors != 0 {
		t.Errorf("%d store writes, %d store errors; want %d and 0", m.StoreWrites, m.StoreErrors, len(keys))
	}
}
