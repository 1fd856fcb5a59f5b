// The workloads over real HTTP: hot-reads and cold-solves.

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// setupRepeats is how many times each run sets up (starts a server and
// warms it, or for cold-solves starts it); setup_s is the median.
const setupRepeats = 5

// window is one slice of the measured phase: a one-second interval of
// hot-reads, or one cold-solves pass. The end-to-end
// values are medians over windows, so a stall from outside the
// benchmark moves them only if it spans most windows.
type window struct {
	lats []float64 // ms: the population of p50_ms and tail_ms
	done int       // requests completed in the window, all lanes
	secs float64
	cpu  time.Duration // server CPU time spent in the window
}

// outcome is what the HTTP phase of a run measured.
type outcome struct {
	setups  []time.Duration
	timings []timing // every latency sample, all windows
	tailQ   float64
	windows []window
	done    int // requests completed, all lanes
	checks  int // tenant accounting checks after the measured phase
	rss     []float64
	counts  counters
	meta    map[string]any
}

func newOutcome() *outcome {
	return &outcome{counts: counters{}, meta: map[string]any{}}
}

// measure snapshots the server around fn, which runs the measured phase
// from start, and folds the counter deltas into oc. With every > 0 it
// also reads the server's CPU time every interval until span has
// passed, and returns the readings, the first at start; otherwise the
// readings are those at start and at the end.
func (oc *outcome) measure(srv *serverProc, every, span time.Duration, fn func(start time.Time)) ([]time.Duration, error) {
	before, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	marks := []time.Duration{cpu0}
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if c, err := srv.cpuTime(); err == nil {
						marks = append(marks, c)
					}
				}
			}
		}()
	}
	fn(start)
	if every > 0 {
		// Let the reading that closes the last whole window land.
		time.Sleep(time.Until(start.Add(span + every/10)))
	}
	close(stop)
	wg.Wait()
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	if every == 0 {
		marks = append(marks, cpu1)
	}
	oc.rss = append(oc.rss, rss)
	oc.counts.add(before, after)
	return marks, nil
}

// splitWindows cuts a loop's timings into windows of length every; a
// window is kept only when a CPU reading closes it.
func (oc *outcome) splitWindows(ts []timing, every time.Duration, marks []time.Duration) {
	n := len(marks) - 1
	ws := make([]window, n)
	for i := range ws {
		ws[i].secs = every.Seconds()
		ws[i].cpu = marks[i+1] - marks[i]
	}
	for _, t := range ts {
		if w := int(t.at / every); w < n {
			ws[w].lats = append(ws[w].lats, ms(t.lat))
			ws[w].done++
		}
	}
	oc.windows = append(oc.windows, ws...)
}

// sendAll sends ops over two lanes during set-up. Any failed request is
// a set-up error: a run never measures a server it could not prepare.
func sendAll(ctx context.Context, base string, ops []op, chk *checker) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := newLane(base)
			defer l.close()
			for i := c; i < len(ops); i += 2 {
				status, body, err := l.do(ctx, ops[i])
				if err == nil && !chk.check(ops[i], status, body) {
					err = fmt.Errorf("set-up %s failed its check", ops[i].kind)
				}
				if err != nil {
					errs[c] = fmt.Errorf("set-up request %s: %w", ops[i].kind, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp starts servers setupRepeats times, each followed by warm, and
// returns the last one, still running.
func setUp(ctx context.Context, cfg config, oc *outcome, warm func(*serverProc) error) (*serverProc, error) {
	var srv *serverProc
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		s, err := startServer(ctx, cfg.server, filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, i)))
		if err != nil {
			return nil, err
		}
		if err := warm(s); err != nil {
			s.stop()
			return nil, err
		}
		oc.setups = append(oc.setups, time.Since(t0))
		srv = s
	}
	return srv, nil
}

// checkAccounting verifies that each tenant's /accounting epoch count
// equals its successful epoch advances (registration publishes the
// first epoch). It returns how many tenants it checked.
func checkAccounting(ctx context.Context, base string, want map[string]int, chk *checker) int {
	l := newLane(base)
	defer l.close()
	for id, epochs := range want {
		o := op{kind: opAccounting, tenant: id}
		status, body, err := l.do(ctx, o)
		if err != nil {
			chk.fail(o, err)
			continue
		}
		var acc struct {
			Epochs int `json:"epochs"`
		}
		if err := json.Unmarshal(body, &acc); err != nil || status != 200 {
			chk.fail(o, fmt.Errorf("accounting for %s: status %d", id, status))
			continue
		}
		if acc.Epochs != epochs {
			chk.fail(o, fmt.Errorf("tenant %s reports %d epochs, want %d", id, acc.Epochs, epochs))
		}
	}
	return len(want)
}

// runHot is hot-reads: a closed loop on two connections over state that
// set-up put in memory, so no measured request solves an LP or touches
// the disk store. Windows are one second long.
func runHot(ctx context.Context, cfg config, chk *checker) (*outcome, error) {
	oc := newOutcome()
	// The p90, not the p99: on a 2-core host the p99 of sub-millisecond
	// requests is set by how often the OS deschedules a busy thread,
	// which varies twofold from one run to the next.
	oc.tailQ = 0.90
	hs := hotWarm(cfg.seed, cfg.heldOut)
	warmOps := append(append(append([]op{}, hs.tenants...), hs.tailored...), hs.compares...)
	mix := hotStream(cfg.seed, cfg.heldOut, -1, hs)
	for i := 0; i < 400; i++ {
		warmOps = append(warmOps, mix())
	}
	srv, err := setUp(ctx, cfg, oc, func(s *serverProc) error { return sendAll(ctx, s.base, warmOps, chk) })
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	var per [2][]timing
	var kept [2]*keptBodies
	var checking [2]time.Duration
	marks, err := oc.measure(srv, time.Second, cfg.seconds, func(start time.Time) {
		deadline := start.Add(cfg.seconds)
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				l := newLane(srv.base)
				defer l.close()
				per[c], kept[c], checking[c] = closedLoop(ctx, l, hotStream(cfg.seed, cfg.heldOut, c, hs), start, deadline, chk)
			}(c)
		}
		wg.Wait()
	})
	if err != nil {
		return nil, err
	}
	oc.timings = append(per[0], per[1]...)
	oc.done = len(oc.timings)
	oc.splitWindows(oc.timings, time.Second, marks)
	for _, k := range kept {
		k.checkAll(chk)
	}
	// The byte comparisons and body copies of the loop hold back
	// throughput by their share of each lane's time; the meta line
	// carries that share.
	oc.meta["check_time_frac"] = frac((checking[0] + checking[1]).Seconds(), 2*cfg.seconds.Seconds())
	want := map[string]int{}
	for _, t := range hs.tenants {
		want[t.tenant] = 1
	}
	oc.checks = checkAccounting(ctx, srv.base, want, chk)
	return oc, nil
}

// runCold is cold-solves: passes over the cold catalogue on one
// connection, each against a fresh server with an empty store; each
// pass is a window. Passes run until their measured time reaches
// cfg.seconds, so the last pass may end past it; maxPasses > 0 caps
// their number. Every pass sends the same requests in the same order,
// so each response must be byte-identical to its counterpart of the
// first pass.
func runCold(ctx context.Context, cfg config, chk *checker, maxPasses int) (*outcome, error) {
	oc := newOutcome()
	// The highest percentile with ten of a pass's 56 samples beyond it.
	oc.tailQ = 0.80
	ops := coldPass(cfg.seed, cfg.heldOut)
	var digests []string
	var measured time.Duration
	for p := 0; measured < cfg.seconds && (maxPasses == 0 || p < maxPasses); p++ {
		t0 := time.Now()
		srv, err := startServer(ctx, cfg.server, filepath.Join(cfg.work, fmt.Sprintf("cold-%d", p)))
		if err != nil {
			return nil, err
		}
		oc.setups = append(oc.setups, time.Since(t0))
		statuses := make([]int, len(ops))
		bodies := make([][]byte, len(ops))
		lats := make([]time.Duration, len(ops))
		errs := make([]error, len(ops))
		var busy time.Duration
		marks, err := oc.measure(srv, 0, 0, func(start time.Time) {
			l := newLane(srv.base)
			defer l.close()
			for i, o := range ops {
				t := time.Now()
				status, body, err := l.do(ctx, o)
				lats[i] = time.Since(t)
				statuses[i], bodies[i], errs[i] = status, append([]byte(nil), body...), err
			}
			busy = time.Since(start)
		})
		srv.stop()
		if err != nil {
			return nil, err
		}
		measured += busy
		// Checks run after the timed loop so they do not stretch it.
		w := window{done: len(ops), secs: busy.Seconds(), cpu: marks[1] - marks[0]}
		h := sha256.New()
		for i, o := range ops {
			if errs[i] != nil {
				chk.fail(o, errs[i])
			} else {
				chk.check(o, statuses[i], bodies[i])
			}
			h.Write(bodies[i])
			oc.timings = append(oc.timings, timing{kind: o.kind, lat: lats[i]})
			w.lats = append(w.lats, ms(lats[i]))
		}
		oc.windows = append(oc.windows, w)
		digests = append(digests, hex.EncodeToString(h.Sum(nil)))
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			chk.fail(op{kind: opTailored}, fmt.Errorf("cold-solves pass digests differ: %v", digests))
			break
		}
	}
	// The median set-up rests on at least setupRepeats server starts.
	for len(oc.setups) < setupRepeats {
		t0 := time.Now()
		srv, err := startServer(ctx, cfg.server, filepath.Join(cfg.work, fmt.Sprintf("cold-setup-%d", len(oc.setups))))
		if err != nil {
			return nil, err
		}
		oc.setups = append(oc.setups, time.Since(t0))
		srv.stop()
	}
	oc.done = len(oc.timings)
	oc.meta["passes"] = len(digests)
	oc.meta["body_digest"] = digests[0]
	return oc, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
