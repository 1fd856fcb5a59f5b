// Command dpserver publishes a count-query result at multiple privacy
// levels over HTTP — the paper's motivating "report on the Internet"
// scenario (Section 2.6) made concrete, served through the
// internal/engine compute-once layer.
//
// On startup it generates a synthetic survey database, evaluates the
// flu count query, and holds the result as the survey: a
// *tenant.Tenant like every registered tenant (one principal type),
// with the -levels ladder, no budget, and an Algorithm 1 release plan
// read from the engine's plans cache on each use. Each request to
// /v1/result?level=K returns the level-K released value for the
// *current epoch*; all levels within an epoch come from one correlated
// cascade draw, so colluding readers cannot cancel the noise (Lemma
// 4). POST /v1/epoch advances to a fresh draw. Handlers are lock-free:
// the epoch lives behind an atomic snapshot and exact artifacts come
// from the engine's caches. The survey's cascade has its own PRNG
// stream, seeded from -seed but apart from the one that draws the
// database.
//
// The versioned surface (see README "Serving & operations" for the
// full contract):
//
//	GET  /v1/result?level=K released result at privacy level K (1-based)
//	GET  /v1/levels         the privacy levels and their α values
//	POST /v1/epoch          advance to a new correlated release
//	GET  /v1/mechanism      exact marginal mechanism of a level (public)
//	GET  /v1/tailored       engine-cached tailored optimum (Theorem 1: G·T°)
//	GET  /v1/sample         draws of the public mechanism at a claimed input
//	GET  /v1/metrics        serving, engine-cache, store, and tenant counters
//	GET  /healthz           liveness probe
//	GET  /readyz            readiness probe (503 while draining)
//
// The multi-tenant tree serves many isolated surveys from one
// process, each tenant with its own n, α-ladder, loss,
// side-information, epoch state, and exact privacy accounting
// (one epoch draw spends α₁ — Lemma 4 plus sequential composition —
// and a configured min_alpha floor refuses draws past the budget).
// Release, epoch and sample share their handlers with the survey
// routes. A tenant pins no compiled state: like the survey's, its
// plan comes from the engine's plans cache on each use, and it is
// listed only once its first epoch is drawn. Tenant n and ladder
// length are capped (maxTenantN, maxTenantLevels), and POST bodies
// and -tenants-config share one strict decoder:
//
//	GET|POST   /v1/tenants                 list / register tenants
//	GET|DELETE /v1/tenants/{id}            describe / retire one tenant
//	GET  /v1/tenants/{id}/release?level=K  current-epoch release at level K
//	POST /v1/tenants/{id}/epoch            fresh correlated draw (budgeted)
//	GET  /v1/tenants/{id}/sample           public-mechanism draws
//	GET  /v1/tenants/{id}/accounting       exact cumulative spend
//	GET  /v1/tenants/{id}/tailored         tenant consumer's tailored optimum
//
// With -store-dir set, the engine persists its tailored mechanisms
// and compare scorecards to a content-addressed disk store; restarting
// against the same directory (and -tenants-config) warm-boots the full
// surface with zero LP solves — "solves":0 in /v1/metrics. Geometric
// mechanisms, release plans and samplers are not persisted: G and the
// plans are rebuilt from their O(n) distinct entries on boot.
//
// Every rational on the wire (alpha, -levels, tenant levels and
// min_alpha, the Bayesian prior) is at most maxWireRatLen bytes and an
// integer, a/b or plain decimal; anything else is a 400.
//
// The legacy unversioned paths (/result, /tailored, ...) are retired:
// they return 410 Gone with the typed error envelope and a Link
// header naming the /v1 successor.
//
// The request context bounds only how long an LP-backed request
// waits: a client disconnect (503) or -solve-timeout (504) ends the
// wait, while the engine runs a started solve to completion and
// caches it, so a retry joins the solve or hits the cache.
// -max-inflight-solves sheds excess concurrent solves, tenant plan
// builds included, with a fast 429.
//
// The process runs a configured http.Server (header/read/write
// timeouts) and drains connections gracefully on SIGINT/SIGTERM,
// flipping /readyz to 503 for the duration of the drain; it then
// closes the engine, which stops any solve still running.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minimaxdp/internal/engine"
)

func main() {
	addr := flag.String("addr", ":8990", "listen address (use :0 for an ephemeral port)")
	n := flag.Int("n", 500, "synthetic population size")
	city := flag.String("city", "San Diego", "survey city")
	fluRate := flag.Float64("flurate", 0.08, "synthetic flu rate among adults")
	levelsStr := flag.String("levels", "1/2,2/3,4/5", "increasing privacy levels")
	seed := flag.Int64("seed", 1, "PRNG seed")
	maxTailoredN := flag.Int("max-tailored-n", defaultMaxTailoredN,
		"largest domain size accepted by /v1/tailored (cold solves, four wire losses at alpha 1/2-1/3: 1.1-1.8ms at n=8, 8-16ms at n=16, 34-157ms at n=24, 0.09-0.24s at n=32, zero-one at n=32, alpha 1/3: 3.4s)")
	solveTimeout := flag.Duration("solve-timeout", 15*time.Second,
		"how long one LP-backed request waits for its solve (0 disables; on expiry it answers 504 and the solve runs on, cached for the retry)")
	maxInFlight := flag.Int("max-inflight-solves", 0,
		"bound on concurrent LP solves and release-plan builds (0 = engine default; must not be negative; excess sheds with 429)")
	traceEngine := flag.Bool("trace-engine", false,
		"log engine span events (solve-start/solve-done/shed) to stderr")
	debugAddr := flag.String("debug-addr", "",
		"optional address for net/http/pprof (empty = disabled; keep it loopback-only)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second,
		"how long to drain connections after SIGINT/SIGTERM")
	storeDir := flag.String("store-dir", "",
		"directory for the disk-backed artifact store (empty = in-memory only; reuse across restarts for zero-solve warm boots)")
	tenantsConfig := flag.String("tenants-config", "",
		"JSON file of tenant specs to register at startup ({\"tenants\": [...]})")
	flag.Parse()
	if *maxInFlight < 0 {
		log.Fatal("dpserver: -max-inflight-solves must not be negative")
	}

	cfg := serverConfig{
		N:                 *n,
		City:              *city,
		FluRate:           *fluRate,
		Levels:            *levelsStr,
		Seed:              *seed,
		MaxTailoredN:      *maxTailoredN,
		MaxInFlightSolves: *maxInFlight,
		SolveTimeout:      *solveTimeout,
		StoreDir:          *storeDir,
		TenantsConfig:     *tenantsConfig,
	}
	if *traceEngine {
		cfg.Trace = func(ev engine.TraceEvent) {
			switch ev.Kind {
			case engine.TraceSolveStart, engine.TraceShed:
				log.Printf("engine %s artifact=%s key=%q", ev.Kind, ev.Artifact, ev.Key)
			case engine.TraceSolveDone:
				log.Printf("engine %s artifact=%s key=%q dur=%s err=%v",
					ev.Kind, ev.Artifact, ev.Key, ev.Duration, ev.Err)
			}
		}
	}

	s, err := newServer(cfg)
	if err != nil {
		log.Fatal("dpserver: ", err)
	}
	s.logRequests = true

	// Listen before logging so -addr :0 reports the real port — the
	// CI smoke test and local scripting both parse this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal("dpserver: ", err)
	}

	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("dpserver: pprof on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				log.Printf("dpserver: pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("dpserver: listening on %s (levels %s)", ln.Addr(), *levelsStr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("dpserver: ", err)
		}
	case <-ctx.Done():
		stop()
		s.ready.Store(false) // /readyz → 503 while draining
		log.Printf("dpserver: shutdown signal received; draining for up to %s", *shutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("dpserver: graceful shutdown incomplete: %v", err)
			if cerr := srv.Close(); cerr != nil {
				log.Printf("dpserver: close: %v", cerr)
			}
		}
	}
	s.eng.Close()
	log.Printf("dpserver: stopped")
}
