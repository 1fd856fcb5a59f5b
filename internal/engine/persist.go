// Disk persistence bindings: the glue between the engine's in-memory
// artifact stores and the content-addressed disk store
// (internal/store, aliased diskstore here because the engine already
// has an internal `store` type). Each persisted class gets a binding
// holding its codec pair; the generic miss path in store.compute
// probes the binding after an in-memory miss and, after a successful
// computation, caches the artifact, hands it to the engine's disk
// writer and returns it, so warm-booting a process against a
// populated store directory serves every persisted artifact —
// including the LP-backed tailored solutions — with zero solves.
//
// Write-behind: the write (encode, temp file, fsync, rename) runs on
// one writer goroutine per engine, after the response, instead of
// inside the flight that computed the artifact, so a cold miss costs
// its solve and not its fsync. The queue is bounded (writeQueue); a
// full queue blocks the flight until the writer catches up, so no
// write is ever dropped. The flight has given back its solve slot by
// then (store.compute), so a slow disk sheds no solve. Engine.Close
// drains the queue after the last flight ends, so a graceful stop
// leaves every computed artifact on disk. A crash is different: an artifact answered in the last
// moments before it may not have reached the disk, and the next boot
// re-solves it.
//
// Persisted classes: tailored, compares — the classes whose keys are
// pure value parameters (n, α, loss name, side set, prior, baseline
// set), whose load beats recomputation, and whose decode re-validates
// the artifact. Tailored is the one class that both solves under a
// slot and persists. The rest stay in memory only:
//
//   - mechanisms: decoding G_{n,α} is no faster than building it from
//     the closed form (DESIGN §13.4), and the compare baselines the
//     class also holds are only needed to build a scorecard, which is
//     persisted;
//   - plans: a release plan is built from the O(n) distinct entries of
//     its G's and Lemma 3 transitions, which beats decoding the stored
//     plan at every n measured (DESIGN §13.4), and a rebuilt plan is
//     checked where a loaded transition had to be trusted;
//   - samplers are not a class at all: a sampler is a view of the
//     cached G's rows (sampler.go), so every table it draws from is
//     built from, and certified against, an exact rational row in
//     this process;
//   - interactions: only the compare baselines' interactions, whose
//     losses the persisted scorecard holds.
//
// Failure policy mirrors the disk store's: a binding that cannot
// load, decode, or save an artifact counts a StoreError, emits
// TraceStoreError, and lets the request proceed as if no store were
// configured. Decode goes through the same validating constructors as
// fresh computation (mechanism.FromStrings,
// baseline.Comparison.Validate), so a checksum-valid but semantically
// broken entry is rejected, not served.

package engine

import (
	"sync"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	diskstore "minimaxdp/internal/store"
)

// diskBinding couples one artifact class to its disk codec and to
// the engine's disk writer. enc must accept exactly the concrete type
// the class caches.
type diskBinding struct {
	db  *diskstore.Store
	w   *diskWriter
	enc func(v any) ([]byte, error)
	dec func(payload []byte) (any, error)
}

// writeQueue bounds the artifacts waiting for the disk writer. A put,
// fsync included, takes about a millisecond or less, about what the
// cheapest miss takes, so the queue is rarely more than a few deep;
// the bound only caps what a burst can leave unwritten.
const writeQueue = 64

// diskWrite is one queued write-back.
type diskWrite struct {
	s   *store
	key string
	v   any
}

// diskWriter is the engine's one disk-writing goroutine, fed by a
// bounded queue.
type diskWriter struct {
	queue chan diskWrite
	done  chan struct{} // closed when the writer has drained the queue
	once  sync.Once
}

func newDiskWriter() *diskWriter {
	w := &diskWriter{queue: make(chan diskWrite, writeQueue), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for job := range w.queue {
			job.s.diskSave(job.key, job.v)
		}
	}()
	return w
}

// enqueue hands a computed artifact to the writer, blocking while the
// queue is full. It must not be called after close.
func (w *diskWriter) enqueue(s *store, key string, v any) {
	w.queue <- diskWrite{s: s, key: key, v: v}
}

// close stops the writer after it has written everything queued and
// waits for it. It is idempotent.
func (w *diskWriter) close() {
	w.once.Do(func() { close(w.queue) })
	<-w.done
}

// diskLoad probes the class's disk binding for key. A verified,
// successfully decoded artifact counts a StoreHit; a decode failure
// counts a StoreError (the envelope was intact — quarantining is the
// store's job, rejecting impossible values is the codec's).
func (s *store) diskLoad(key string) (any, bool) {
	payload, ok := s.disk.db.Get(s.name, key)
	if !ok {
		return nil, false
	}
	v, err := s.disk.dec(payload)
	if err != nil {
		s.storeErrors.Add(1)
		s.emit(TraceStoreError, key)
		return nil, false
	}
	s.storeHits.Add(1)
	s.emit(TraceStoreHit, key)
	return v, true
}

// diskSave writes a freshly computed artifact back to the disk store;
// the disk writer calls it. Failures are counted and traced, never
// surfaced: the computation already succeeded and the caller has its
// artifact regardless.
func (s *store) diskSave(key string, v any) {
	payload, err := s.disk.enc(v)
	if err == nil {
		err = s.disk.db.Put(s.name, key, payload)
	}
	if err != nil {
		s.storeErrors.Add(1)
		s.emit(TraceStoreError, key)
		return
	}
	s.storeWrites.Add(1)
	s.emit(TraceStoreWrite, key)
}

// bindDisk attaches the disk store to the engine's persisted classes
// and starts the engine's disk writer. Called once from New; db is
// non-nil.
func (e *Engine) bindDisk(db *diskstore.Store) {
	e.writer = newDiskWriter()
	e.tailored.disk = &diskBinding{
		db: db,
		w:  e.writer,
		enc: func(v any) ([]byte, error) {
			return diskstore.EncodeTailored(v.(*consumer.Tailored)), nil
		},
		dec: func(payload []byte) (any, error) {
			return diskstore.DecodeTailored(payload)
		},
	}
	e.compares.disk = &diskBinding{
		db: db,
		w:  e.writer,
		enc: func(v any) ([]byte, error) {
			return diskstore.EncodeCompare(v.(*baseline.Comparison)), nil
		},
		dec: func(payload []byte) (any, error) {
			return diskstore.DecodeCompare(payload)
		},
	}
}
