// Command perfbench is the repository benchmark. It starts dpserver as
// a separate process on loopback, drives one seeded workload over real
// HTTP, checks every response, and prints the end-to-end metrics; with
// --trace 1 it prints the per-layer metrics instead, from /v1/metrics
// deltas of the same HTTP run plus an in-process traced replay of the
// same generated inputs.
//
// It is normally run through run.py, which builds dpserver and this
// command from source first:
//
//	python3 perfbench/run.py --workload hot-reads --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	heldOut  bool
	seconds  time.Duration
	trace    bool
	server   string // dpserver binary
	work     string // scratch directory inside the checkout
	commit   string
}

var workloads = map[string]bool{"hot-reads": true, "cold-solves": true}

func main() {
	var cfg config
	var traceFlag int
	heldOut := flag.Int64("heldout-seed", -1,
		"run on a held-out seed instead of --seed: its inputs come from a separate seed space, "+
			"so a gain found while tuning on --seed values can be confirmed on unseen inputs")
	flag.StringVar(&cfg.workload, "workload", "", "hot-reads or cold-solves")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	secs := flag.Int("seconds", 15, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = per-layer run (counts plus traced in-process replay)")
	flag.StringVar(&cfg.server, "server", "", "path of the dpserver binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for server stores and logs")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit or source digest of the code under test")
	flag.Parse()
	cfg.seconds = time.Duration(*secs) * time.Second
	cfg.trace = traceFlag == 1
	if *heldOut >= 0 {
		cfg.seed, cfg.heldOut = *heldOut, true
	}
	if !workloads[cfg.workload] || cfg.server == "" || cfg.work == "" || *secs < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload hot-reads|cold-solves --seed N --seconds S --trace 0|1 --server BIN --work DIR")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, meta, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeRecord(cfg, res, meta); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing the result record:", err)
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", metaLine)
	fmt.Println(string(line))
}

// run executes one workload and assembles its result.
func run(ctx context.Context, cfg config) (*result, map[string]any, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, nil, err
	}
	chk := newChecker()
	var oc *outcome
	var err error
	switch cfg.workload {
	case "hot-reads":
		oc, err = runHot(ctx, cfg, chk)
	case "cold-solves":
		// A traced run needs only the counts of one pass; its replay
		// repeats the pass in-process.
		maxPasses := 0
		if cfg.trace {
			maxPasses = 1
		}
		oc, err = runCold(ctx, cfg, chk, maxPasses)
	}
	if err != nil {
		return nil, nil, err
	}
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}

	m := metrics{}
	if cfg.trace {
		oc.counts.report(m)
		tr, err := replay(ctx, cfg, oc)
		if err != nil {
			return nil, nil, err
		}
		tr.report(m)
	} else if err := endToEnd(oc, m); err != nil {
		return nil, nil, err
	}

	summarize(oc)
	failed := chk.failed()
	meta := map[string]any{
		"workload":          cfg.workload,
		"seed":              cfg.seed,
		"heldout":           cfg.heldOut,
		"commit":            cfg.commit,
		"trace":             cfg.trace,
		"samples":           len(oc.timings),
		"windows":           len(oc.windows),
		"requests":          oc.done,
		"setups":            len(oc.setups),
		"accounting_checks": oc.checks,
	}
	for k, v := range oc.meta {
		meta[k] = v
	}
	if chk.first != nil {
		meta["first_failure"] = chk.first.Error()
	}
	return &result{
		Correct:   failed == 0,
		Attempted: oc.done + oc.checks,
		Failed:    failed,
		Metrics:   m,
	}, meta, nil
}

// endToEnd writes the end-to-end metrics of an untraced run: medians
// over set-ups and over windows.
func endToEnd(oc *outcome, m metrics) error {
	var setups, thr, p50, tails, cpu []float64
	for _, d := range oc.setups {
		setups = append(setups, d.Seconds())
	}
	if len(oc.windows) == 0 {
		return fmt.Errorf("the measured phase holds no whole window")
	}
	for i, w := range oc.windows {
		tail, enough := percentile(w.lats, oc.tailQ)
		if !enough || w.done == 0 {
			return fmt.Errorf("window %d: %d latency samples are too few for a p%g", i, len(w.lats), oc.tailQ*100)
		}
		thr = append(thr, float64(w.done)/w.secs)
		p50 = append(p50, median(w.lats))
		tails = append(tails, tail)
		cpu = append(cpu, ms(w.cpu)/float64(w.done))
		fmt.Fprintf(os.Stderr, "perfbench: window %2d: %.1f req/s p50=%.3fms p%g=%.3fms cpu=%.4fms/req\n",
			i, thr[i], p50[i], oc.tailQ*100, tail, cpu[i])
	}
	m.set("setup_s", "s", median(setups))
	m.set("throughput_rps", "1/s", median(thr))
	m.set("p50_ms", "ms", median(p50))
	m.set("tail_ms", "ms", median(tails))
	m.set("cpu_ms_per_req", "ms", median(cpu))
	m.set("rss_peak_mb", "MB", median(oc.rss))
	return nil
}

// summarize prints per-route latency to standard error, with each
// tail only where enough samples lie beyond it.
func summarize(oc *outcome) {
	byKind := map[string][]float64{}
	for _, t := range oc.timings {
		byKind[t.kind.String()] = append(byKind[t.kind.String()], ms(t.lat))
		byKind["all"] = append(byKind["all"], ms(t.lat))
	}
	for _, k := range append(opNames[:], "all") {
		xs := byKind[k]
		if len(xs) == 0 {
			continue
		}
		line := fmt.Sprintf("perfbench: %-17s n=%-6d p50=%.3fms", k, len(xs), median(xs))
		for _, q := range []float64{0.9, 0.99} {
			if v, ok := percentile(xs, q); ok {
				line += fmt.Sprintf(" p%g=%.3fms", q*100, v)
			}
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// writeRecord keeps the result with its metadata under the work
// directory's parent, one file per run.
func writeRecord(cfg config, res *result, meta map[string]any) error {
	dir := filepath.Join(filepath.Dir(cfg.work), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"meta": meta, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", cfg.workload, cfg.seed, cfg.trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
